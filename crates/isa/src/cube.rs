//! The processor cube as a *generator*: seeded derivation of whole
//! target families.
//!
//! Fig. 1 of the paper spans the space of cores a designer might derive;
//! Sections 1–2 claim the compiler must retarget to *any* point of that
//! space, not just the two bundled DSPs. [`CubeParams`] makes the claim
//! testable: it grows the generic parameters of an ASIP (Section 4.2:
//! bit width, register count, optional functional units) into a full
//! parametric space spanning the axes the paper's target models
//! (Section 4) vary over —
//!
//! * **register-file shape** ([`RegFile`]): one homogeneous
//!   general-purpose file (RISC/ASIP style, Section 4.2) versus
//!   special-purpose classes with dedicated multiplier input sides
//!   (DSP56k style, Section 3.3),
//! * **memory banks** (1, or dual X/Y banks driving the bank-assignment
//!   optimization), direct versus AR-only addressing,
//! * **AGU shape** ([`AguSpec`]): number of address registers and the
//!   free post-modify range (0 = every modify is a real instruction),
//! * **parallel-move slots** ([`ParallelSpec`]): how many moves one
//!   arithmetic instruction carries, and whether they must hit distinct
//!   banks,
//! * **mode set** ([`ModeSet`]): no saturation, dedicated saturating
//!   instructions, or residual-control saturation à la the C25's `OVM`
//!   bit (optionally on at reset),
//! * plus the classic ASIP functional-unit parameters (multiplier, MAC,
//!   barrel shifter, immediate width, hardware repeat, zero-overhead
//!   loops, data-path width).
//!
//! Every point is derived *deterministically* from a single `u64` seed
//! ([`CubeParams::from_seed`], a splitmix64 stream), is
//! **valid-by-construction** (the sampler repairs cross-axis
//! constraints), and can be re-checked with [`CubeParams::validate`],
//! which rejects degenerate corners and reports why ([`CubeError`]).
//! [`CubeParams::build`] turns a point into a complete [`TargetDesc`]
//! the whole tool chain retargets to — the foundation the target-space
//! differential fuzzer and the "best target per workload" searches
//! stand on. The ASIP targets `recordc` and `recordd` name (`asip-dsp`,
//! `asip-min`, `asip-default`) are three such points:
//! [`CubeParams::asip_dsp`], [`CubeParams::asip_minimal`] and
//! [`CubeParams::asip_default`].

use std::fmt;

use record_ir::{BinOp, Op, UnOp};

use crate::pattern::{units, Cost, PatNode, Predicate};
use crate::target::{
    AguDesc, LoopCtrl, ModeDesc, ParallelDesc, RptDesc, TargetBuilder, TargetDesc,
};

/// A tiny local splitmix64 step — the same generator `record-prop` uses,
/// duplicated here so target descriptions stay dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Picks one element of `xs` from the seed stream.
fn pick<T: Copy>(state: &mut u64, xs: &[T]) -> T {
    xs[(splitmix64(state) % xs.len() as u64) as usize]
}

/// A seeded coin with probability `num/den` of `true`.
fn chance(state: &mut u64, num: u64, den: u64) -> bool {
    splitmix64(state) % den < num
}

/// Register-file shape: the paper's homogeneous-vs-heterogeneous axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegFile {
    /// One general-purpose file of `n_regs` members; ALU operations are
    /// register–memory (accumulator style when `n_regs == 1`).
    Homogeneous {
        /// Member count of the single file.
        n_regs: u16,
    },
    /// Special-purpose classes in the DSP56k mould: accumulators plus
    /// dedicated left/right multiplier input registers. Implies a
    /// hardware multiplier — the dedicated sides exist *for* it.
    SpecialPurpose {
        /// Accumulator count.
        n_accs: u16,
        /// Left multiplier-input registers (`x` side).
        n_mul_left: u16,
        /// Right multiplier-input registers (`y` side).
        n_mul_right: u16,
    },
}

/// AGU shape: address registers and the free post-modify range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AguSpec {
    /// Number of address registers.
    pub n_ars: u16,
    /// Largest post-increment/decrement applied for free (0 = pointer
    /// registers exist but every modify is a real add, RISC style).
    pub post_range: i8,
}

/// Parallel-move packing shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParallelSpec {
    /// Moves one arithmetic instruction can carry (1 or 2).
    pub slots: u8,
    /// Whether two parallel moves must address distinct banks
    /// (requires a dual-bank memory).
    pub distinct_banks: bool,
}

/// The saturation-arithmetic axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModeSet {
    /// No saturation support at all (`sadd`/`ssub` programs are
    /// legitimately uncoverable).
    None,
    /// Dedicated saturating instructions, no residual control.
    Dedicated,
    /// A saturation mode bit toggled by set/clear instructions (the
    /// C25's `OVM`); mode minimization has work to do.
    Residual {
        /// Whether the mode is on at program entry.
        default_on: bool,
    },
}

/// One point of the processor cube.
///
/// Construct with [`CubeParams::from_seed`] (valid-by-construction), from
/// one of the ASIP presets, or by hand (then check with
/// [`CubeParams::validate`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CubeParams {
    /// Data-path bit width.
    pub word_width: u32,
    /// Register-file shape.
    pub reg_file: RegFile,
    /// Hardware multiplier present? (Forced on for special-purpose
    /// register files.)
    pub has_mul: bool,
    /// Single-instruction multiply–accumulate (implies `has_mul`).
    pub has_mac: bool,
    /// Barrel shifter (otherwise only shift-by-one).
    pub has_barrel_shift: bool,
    /// Immediate field width in bits.
    pub imm_bits: u32,
    /// Memory bank count (1 or 2).
    pub banks: u8,
    /// Words per bank.
    pub words_per_bank: u16,
    /// One-word direct addressing exists? When `false`, every access
    /// goes through an address register (requires an AGU).
    pub has_direct: bool,
    /// Address-generation unit, if present.
    pub agu: Option<AguSpec>,
    /// Parallel-move packing, if present.
    pub parallel: Option<ParallelSpec>,
    /// Saturation support.
    pub modes: ModeSet,
    /// Hardware single-instruction repeat.
    pub has_rpt: bool,
    /// Maximum repeat count (meaningful only with `has_rpt`).
    pub rpt_max: u32,
    /// Zero-overhead loop hardware (free back edge).
    pub zero_overhead_loop: bool,
}

/// Why a cube point is degenerate — the reject reasons of
/// [`CubeParams::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CubeError {
    /// Word width outside the simulator-supported `4..=64`.
    WordWidth(u32),
    /// A register class with zero members.
    EmptyRegClass(&'static str),
    /// Immediate field absent or wider than the data path.
    ImmBits {
        /// Declared immediate width.
        imm: u32,
        /// Data-path width.
        word: u32,
    },
    /// Bank count other than 1 or 2.
    BankCount(u8),
    /// Memory too small to place any benchmark (fewer than 64 words).
    MemoryTooSmall(u16),
    /// Parallel moves requiring distinct banks on a single-bank memory.
    DistinctBanksNeedDualMemory,
    /// Zero parallel-move slots (declare `parallel: None` instead).
    NoParallelSlots,
    /// More than two parallel-move slots (beyond the instruction word).
    TooManyParallelSlots(u8),
    /// AR-only addressing without an AGU to generate addresses.
    IndirectNeedsAgu,
    /// AR-only addressing with fewer than two address registers (one is
    /// reserved for scalar traffic, leaving none for streams).
    IndirectNeedsTwoArs(u16),
    /// Negative free post-modify range.
    NegativePostRange(i8),
    /// MAC without a multiplier.
    MacNeedsMul,
    /// Hardware repeat with a zero maximum count.
    RptCountZero,
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::WordWidth(w) => write!(f, "word width {w} outside 4..=64"),
            CubeError::EmptyRegClass(c) => write!(f, "register class `{c}` has no members"),
            CubeError::ImmBits { imm, word } => {
                write!(f, "immediate width {imm} invalid for a {word}-bit data path")
            }
            CubeError::BankCount(b) => write!(f, "memory must have 1 or 2 banks, not {b}"),
            CubeError::MemoryTooSmall(w) => {
                write!(f, "{w} words per bank cannot hold any kernel (need >= 64)")
            }
            CubeError::DistinctBanksNeedDualMemory => {
                write!(f, "distinct-bank parallel moves need a dual-bank memory")
            }
            CubeError::NoParallelSlots => write!(f, "parallel packing declared with zero slots"),
            CubeError::TooManyParallelSlots(n) => {
                write!(f, "{n} parallel-move slots exceed the 2 an instruction word encodes")
            }
            CubeError::IndirectNeedsAgu => write!(f, "AR-only addressing requires an AGU"),
            CubeError::IndirectNeedsTwoArs(n) => {
                write!(f, "AR-only addressing needs >= 2 address registers, got {n}")
            }
            CubeError::NegativePostRange(r) => write!(f, "negative post-modify range {r}"),
            CubeError::MacNeedsMul => write!(f, "MAC requires a multiplier"),
            CubeError::RptCountZero => write!(f, "hardware repeat with max count 0"),
        }
    }
}

impl std::error::Error for CubeError {}

impl CubeParams {
    /// Derives one valid cube point from a splitmix64 seed.
    ///
    /// Each axis is sampled independently and then *repaired* against
    /// the cross-axis constraints (special-purpose files force a
    /// multiplier, distinct-bank moves force dual banks, AR-only
    /// addressing forces an AGU with at least two registers, …), so the
    /// result always passes [`CubeParams::validate`] — every seed names
    /// a buildable processor.
    pub fn from_seed(seed: u64) -> CubeParams {
        let mut s = seed;
        let st = &mut s;

        let word_width: u32 = pick(st, &[8, 16, 24, 32]);
        let special = chance(st, 2, 5);
        let reg_file = if special {
            RegFile::SpecialPurpose {
                n_accs: pick(st, &[1, 2, 2, 4]),
                n_mul_left: pick(st, &[1, 2]),
                n_mul_right: pick(st, &[1, 2]),
            }
        } else {
            RegFile::Homogeneous { n_regs: pick(st, &[1, 2, 4, 8]) }
        };
        // special-purpose sides exist for the multiplier; force it
        let has_mul = special || chance(st, 3, 4);
        let has_mac = has_mul && chance(st, 1, 2);
        let has_barrel_shift = chance(st, 1, 2);
        let imm_bits = pick(st, &[4u32, 8, 12, 16]).min(word_width);

        let banks: u8 = pick(st, &[1, 1, 2]);
        let words_per_bank: u16 = pick(st, &[128, 512, 2048, 4096]);
        let agu = if chance(st, 4, 5) {
            Some(AguSpec { n_ars: pick(st, &[1, 2, 4, 8]), post_range: pick(st, &[0, 1, 1, 2]) })
        } else {
            None
        };
        // AR-only addressing needs an AGU with a scalar AR to spare
        let has_direct = match agu {
            Some(a) if a.n_ars >= 2 => chance(st, 2, 3),
            _ => true,
        };
        let parallel = if chance(st, 2, 5) {
            Some(ParallelSpec {
                slots: pick(st, &[1, 2, 2]),
                distinct_banks: banks == 2 && chance(st, 1, 2),
            })
        } else {
            None
        };
        let modes = match splitmix64(st) % 4 {
            0 => ModeSet::None,
            1 => ModeSet::Dedicated,
            n => ModeSet::Residual { default_on: n == 3 },
        };
        let has_rpt = chance(st, 1, 2);
        let rpt_max = if has_rpt { pick(st, &[64, 1024, 4096, 65536]) } else { 0 };
        let zero_overhead_loop = chance(st, 1, 3);

        let params = CubeParams {
            word_width,
            reg_file,
            has_mul,
            has_mac,
            has_barrel_shift,
            imm_bits,
            banks,
            words_per_bank,
            has_direct,
            agu,
            parallel,
            modes,
            has_rpt,
            rpt_max,
            zero_overhead_loop,
        };
        debug_assert_eq!(params.validate(), Ok(()), "from_seed({seed:#x}) must be valid");
        params
    }

    /// The default ASIP (`asip-default`): four registers, a two-cycle
    /// multiplier and two address registers, in the corner of the cube
    /// every ASIP preset lives in (homogeneous register file,
    /// register–memory ALU operations, one bank of 2048 words with
    /// direct addressing, no parallel moves, no zero-overhead loop).
    pub fn asip_default() -> CubeParams {
        CubeParams {
            word_width: 16,
            reg_file: RegFile::Homogeneous { n_regs: 4 },
            has_mul: true,
            has_mac: false,
            has_barrel_shift: false,
            imm_bits: 8,
            banks: 1,
            words_per_bank: 2048,
            has_direct: true,
            agu: Some(AguSpec { n_ars: 2, post_range: 1 }),
            parallel: None,
            modes: ModeSet::None,
            has_rpt: false,
            rpt_max: 0,
            zero_overhead_loop: false,
        }
    }

    /// A minimal control-oriented ASIP (`asip-min`): two registers, no
    /// multiplier (it multiplies only by powers of two, on the shifter)
    /// and no AGU.
    pub fn asip_minimal() -> CubeParams {
        CubeParams {
            reg_file: RegFile::Homogeneous { n_regs: 2 },
            has_mul: false,
            agu: None,
            ..CubeParams::asip_default()
        }
    }

    /// A DSP-oriented ASIP (`asip-dsp`): single-cycle MAC, barrel
    /// shifter, a saturation mode off at reset, four address registers
    /// and a hardware repeat of up to 4096.
    pub fn asip_dsp() -> CubeParams {
        CubeParams {
            has_mac: true,
            has_barrel_shift: true,
            imm_bits: 12,
            agu: Some(AguSpec { n_ars: 4, post_range: 1 }),
            modes: ModeSet::Residual { default_on: false },
            has_rpt: true,
            rpt_max: 4096,
            ..CubeParams::asip_default()
        }
    }

    /// Checks the cross-axis constraints, reporting the first violated
    /// one. [`from_seed`](CubeParams::from_seed) points always pass;
    /// hand-built points may not.
    ///
    /// # Errors
    ///
    /// Returns the first degeneracy found, with the offending values.
    pub fn validate(&self) -> Result<(), CubeError> {
        if !(4..=64).contains(&self.word_width) {
            return Err(CubeError::WordWidth(self.word_width));
        }
        match self.reg_file {
            RegFile::Homogeneous { n_regs: 0 } => return Err(CubeError::EmptyRegClass("r")),
            RegFile::SpecialPurpose { n_accs: 0, .. } => return Err(CubeError::EmptyRegClass("a")),
            RegFile::SpecialPurpose { n_mul_left: 0, .. } => {
                return Err(CubeError::EmptyRegClass("x"))
            }
            RegFile::SpecialPurpose { n_mul_right: 0, .. } => {
                return Err(CubeError::EmptyRegClass("y"))
            }
            _ => {}
        }
        if matches!(self.reg_file, RegFile::SpecialPurpose { .. }) && !self.has_mul {
            return Err(CubeError::MacNeedsMul);
        }
        if self.imm_bits == 0 || self.imm_bits > self.word_width {
            return Err(CubeError::ImmBits { imm: self.imm_bits, word: self.word_width });
        }
        if self.banks != 1 && self.banks != 2 {
            return Err(CubeError::BankCount(self.banks));
        }
        if self.words_per_bank < 64 {
            return Err(CubeError::MemoryTooSmall(self.words_per_bank));
        }
        if let Some(p) = &self.parallel {
            if p.slots == 0 {
                return Err(CubeError::NoParallelSlots);
            }
            if p.slots > 2 {
                return Err(CubeError::TooManyParallelSlots(p.slots));
            }
            if p.distinct_banks && self.banks != 2 {
                return Err(CubeError::DistinctBanksNeedDualMemory);
            }
        }
        match (&self.agu, self.has_direct) {
            (None, false) => return Err(CubeError::IndirectNeedsAgu),
            (Some(a), false) if a.n_ars < 2 => return Err(CubeError::IndirectNeedsTwoArs(a.n_ars)),
            _ => {}
        }
        if let Some(a) = &self.agu {
            if a.post_range < 0 {
                return Err(CubeError::NegativePostRange(a.post_range));
            }
        }
        if self.has_mac && !self.has_mul {
            return Err(CubeError::MacNeedsMul);
        }
        if self.has_rpt && self.rpt_max == 0 {
            return Err(CubeError::RptCountZero);
        }
        Ok(())
    }

    /// The generated target name: every axis encoded, so distinct cube
    /// points name (and fingerprint) distinct machines.
    pub fn name(&self) -> String {
        let mut n = format!("cube-w{}", self.word_width);
        match self.reg_file {
            RegFile::Homogeneous { n_regs } => n.push_str(&format!("-h{n_regs}")),
            RegFile::SpecialPurpose { n_accs, n_mul_left, n_mul_right } => {
                n.push_str(&format!("-a{n_accs}x{n_mul_left}y{n_mul_right}"))
            }
        }
        n.push_str(&format!("-b{}x{}", self.banks, self.words_per_bank));
        n.push(if self.has_direct { 'd' } else { 'i' });
        match &self.agu {
            Some(a) => n.push_str(&format!("-agu{}p{}", a.n_ars, a.post_range)),
            None => n.push_str("-noagu"),
        }
        match &self.parallel {
            Some(p) => {
                n.push_str(&format!("-pm{}{}", p.slots, if p.distinct_banks { "x" } else { "s" }))
            }
            None => n.push_str("-seq"),
        }
        match self.modes {
            ModeSet::None => n.push_str("-nomode"),
            ModeSet::Dedicated => n.push_str("-dsat"),
            ModeSet::Residual { default_on } => {
                n.push_str(if default_on { "-sat1" } else { "-sat0" })
            }
        }
        if self.has_mac {
            n.push_str("-mac");
        } else if self.has_mul {
            n.push_str("-mul");
        }
        if self.has_barrel_shift {
            n.push_str("-bs");
        }
        n.push_str(&format!("-i{}", self.imm_bits));
        if self.has_rpt {
            n.push_str(&format!("-rpt{}", self.rpt_max));
        }
        if self.zero_overhead_loop {
            n.push_str("-zol");
        }
        n
    }

    /// A coarse corner label (5 binary axes, 32 corners) for survival
    /// reports: register-file shape, bank count, AGU, parallel moves,
    /// saturation support.
    pub fn corner(&self) -> String {
        format!(
            "{}/b{}/{}/{}/{}",
            match self.reg_file {
                RegFile::Homogeneous { .. } => "hom",
                RegFile::SpecialPurpose { .. } => "spec",
            },
            self.banks,
            if self.agu.is_some() { "agu" } else { "noagu" },
            if self.parallel.is_some() { "pm" } else { "seq" },
            if matches!(self.modes, ModeSet::None) { "nosat" } else { "sat" },
        )
    }

    /// Builds the complete target description for this cube point.
    ///
    /// # Errors
    ///
    /// Returns the [`CubeError`] naming the degenerate axis; seeded
    /// points never fail.
    pub fn build(&self) -> Result<TargetDesc, CubeError> {
        self.validate()?;
        let mut b = TargetBuilder::new(self.name(), self.word_width);
        match self.reg_file {
            RegFile::Homogeneous { n_regs } => self.build_homogeneous(&mut b, n_regs),
            RegFile::SpecialPurpose { n_accs, n_mul_left, n_mul_right } => {
                self.build_special(&mut b, n_accs, n_mul_left, n_mul_right)
            }
        }

        b.memory(self.banks, self.words_per_bank);
        b.direct_addressing(self.has_direct);
        if let Some(a) = &self.agu {
            b.agu(AguDesc {
                n_ars: a.n_ars,
                post_range: a.post_range,
                ar_load_cost: Cost::new(1, 1),
                ar_add_cost: Cost::new(1, 1),
            });
        }
        if let Some(p) = &self.parallel {
            b.parallel(ParallelDesc {
                max_moves: p.slots,
                move_units: units::MOVE,
                moves_need_distinct_banks: p.distinct_banks,
            });
        }
        b.loop_ctrl(LoopCtrl {
            init_cost: Cost::new(1, 1),
            end_cost: if self.zero_overhead_loop { Cost::new(0, 0) } else { Cost::new(2, 2) },
            rpt: self.has_rpt.then_some(RptDesc { cost: Cost::new(1, 1), max_count: self.rpt_max }),
        });
        Ok(b.build().expect("validated cube point builds a consistent target"))
    }

    /// ASIP-style grammar: one file `r`, register–memory ALU operations
    /// (accumulator style keeps code compact; the domain-specific
    /// flavour of many ASIPs).
    fn build_homogeneous(&self, b: &mut TargetBuilder, n_regs: u16) {
        let r_c = b.reg_class("r", n_regs);
        let r = b.nt_reg("r", r_c);
        let mem = b.nt_mem("mem");
        let imm = b.nt_imm("imm", self.imm_bits);
        b.base_mem_rules(mem);
        b.base_imm_rule(imm);

        let ld = b.chain(r, mem, "LD {d},{0}", Cost::new(1, 1));
        b.with_units(ld, units::MOVE);
        let ldi = b.chain(r, imm, "LDI {d},{0}", Cost::new(1, 1));
        b.with_units(ldi, units::ALU);
        let st = b.chain(mem, r, "ST {0},{d}", Cost::new(1, 1));
        b.with_units(st, units::MOVE);

        for (op, opname) in [
            (BinOp::Add, "ADD"),
            (BinOp::Sub, "SUB"),
            (BinOp::And, "AND"),
            (BinOp::Or, "OR"),
            (BinOp::Xor, "XOR"),
        ] {
            let rm = b.pat(
                r,
                PatNode::op(Op::Bin(op), vec![PatNode::nt(r), PatNode::nt(mem)]),
                &format!("{opname} {{d}},{{1}}"),
                Cost::new(1, 1),
            );
            b.with_units(rm, units::ALU);
            let rr = b.pat(
                r,
                PatNode::op(Op::Bin(op), vec![PatNode::nt(r), PatNode::nt(r)]),
                &format!("{opname}R {{d}},{{1}}"),
                Cost::new(1, 1),
            );
            b.with_units(rr, units::ALU);
            if matches!(op, BinOp::Add | BinOp::Sub) {
                b.mode_sensitive(rm).mode_sensitive(rr);
            }
        }
        let addi = b.pat(
            r,
            PatNode::op(Op::Bin(BinOp::Add), vec![PatNode::nt(r), PatNode::nt(imm)]),
            "ADDI {d},{1}",
            Cost::new(1, 1),
        );
        b.with_units(addi, units::ALU);

        if self.has_mul {
            let mul = b.pat(
                r,
                PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(r), PatNode::nt(mem)]),
                "MUL {d},{1}",
                Cost::new(1, if self.has_mac { 1 } else { 2 }),
            );
            b.with_units(mul, units::MUL);
            let mul_rr = b.pat(
                r,
                PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(r), PatNode::nt(r)]),
                "MULR {d},{1}",
                Cost::new(1, if self.has_mac { 1 } else { 2 }),
            );
            b.with_units(mul_rr, units::MUL);
        } else {
            let shmul = b.pat(
                r,
                PatNode::op(
                    Op::Bin(BinOp::Mul),
                    vec![PatNode::nt(r), PatNode::op(Op::Const, vec![])],
                ),
                "SHLK {d},{0}",
                Cost::new(1, 1),
            );
            b.with_pred(shmul, Predicate::ConstPow2).with_units(shmul, units::ALU);
        }
        if self.has_mac {
            let mac = b.pat(
                r,
                PatNode::op(
                    Op::Bin(BinOp::Add),
                    vec![
                        PatNode::nt(r),
                        PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(r), PatNode::nt(mem)]),
                    ],
                ),
                "MAC {d},{1},{2}",
                Cost::new(1, 1),
            );
            b.with_units(mac, units::MUL | units::ALU);
        }

        self.shift_rules(b, r);
        for (op, opname) in [(UnOp::Neg, "NEG"), (UnOp::Not, "NOT"), (UnOp::Abs, "ABS")] {
            let rule = b.pat(
                r,
                PatNode::op(Op::Un(op), vec![PatNode::nt(r)]),
                &format!("{opname} {{d}}"),
                Cost::new(1, 1),
            );
            b.with_units(rule, units::ALU);
        }
        self.sat_rules(b, r, mem);
        b.store(r, "ST {0},{d}", Cost::new(1, 1));
    }

    /// DSP56k-style grammar: accumulators, dedicated multiplier sides.
    fn build_special(&self, b: &mut TargetBuilder, n_accs: u16, n_left: u16, n_right: u16) {
        let a_c = b.reg_class("a", n_accs);
        let x_c = b.reg_class("x", n_left);
        let y_c = b.reg_class("y", n_right);
        let a = b.nt_reg("a", a_c);
        let x = b.nt_reg("x", x_c);
        let y = b.nt_reg("y", y_c);
        let mem = b.nt_mem("mem");
        let imm = b.nt_imm("imm", self.imm_bits);
        b.base_mem_rules(mem);
        b.base_imm_rule(imm);

        for (dst, src) in [(x, mem), (y, mem), (a, mem)] {
            let mv = b.chain(dst, src, "MOVE {0},{d}", Cost::new(1, 1));
            b.with_units(mv, units::MOVE);
        }
        let mv_imm = b.chain(a, imm, "MOVE #{0},{d}", Cost::new(1, 1));
        b.with_units(mv_imm, units::MOVE);
        let spill = b.chain(mem, a, "MOVE {0},{d}", Cost::new(1, 1));
        b.with_units(spill, units::MOVE);
        for src in [x, y] {
            let mv = b.chain(a, src, "MOVE {0},{d}", Cost::new(1, 1));
            b.with_units(mv, units::MOVE);
        }

        let mpy = b.pat(
            a,
            PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(x), PatNode::nt(y)]),
            "MPY {0},{1},{d}",
            Cost::new(1, 1),
        );
        b.with_units(mpy, units::MUL);
        if self.has_mac {
            let mac = b.pat(
                a,
                PatNode::op(
                    Op::Bin(BinOp::Add),
                    vec![
                        PatNode::nt(a),
                        PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(x), PatNode::nt(y)]),
                    ],
                ),
                "MAC {1},{2},{d}",
                Cost::new(1, 1),
            );
            b.with_units(mac, units::MUL | units::ALU);
            let mac_sub = b.pat(
                a,
                PatNode::op(
                    Op::Bin(BinOp::Sub),
                    vec![
                        PatNode::nt(a),
                        PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(x), PatNode::nt(y)]),
                    ],
                ),
                "MACR- {1},{2},{d}",
                Cost::new(1, 1),
            );
            b.with_units(mac_sub, units::MUL | units::ALU);
        }

        for (op, name) in [(BinOp::Add, "ADD"), (BinOp::Sub, "SUB")] {
            for src in [x, y, a] {
                let rule = b.pat(
                    a,
                    PatNode::op(Op::Bin(op), vec![PatNode::nt(a), PatNode::nt(src)]),
                    &format!("{name} {{1}},{{d}}"),
                    Cost::new(1, 1),
                );
                b.with_units(rule, units::ALU).mode_sensitive(rule);
            }
        }
        for (op, name) in [(BinOp::And, "AND"), (BinOp::Or, "OR"), (BinOp::Xor, "EOR")] {
            let rule = b.pat(
                a,
                PatNode::op(Op::Bin(op), vec![PatNode::nt(a), PatNode::nt(x)]),
                &format!("{name} {{1}},{{d}}"),
                Cost::new(1, 1),
            );
            b.with_units(rule, units::ALU);
        }
        for (op, name) in [(UnOp::Neg, "NEG"), (UnOp::Abs, "ABS"), (UnOp::Not, "NOT")] {
            let rule = b.pat(
                a,
                PatNode::op(Op::Un(op), vec![PatNode::nt(a)]),
                &format!("{name} {{d}}"),
                Cost::new(1, 1),
            );
            b.with_units(rule, units::ALU);
        }
        self.shift_rules(b, a);
        self.sat_rules(b, a, x);
        b.store(a, "MOVE {0},{d}", Cost::new(1, 1));
    }

    /// Shift rules: barrel (any constant amount) or shift-by-one.
    fn shift_rules(&self, b: &mut TargetBuilder, reg: crate::nonterm::NonTermId) {
        if self.has_barrel_shift {
            for (op, opname) in [(BinOp::Shl, "SHL"), (BinOp::Shr, "SHR")] {
                let rule = b.pat(
                    reg,
                    PatNode::op(
                        Op::Bin(op),
                        vec![PatNode::nt(reg), PatNode::op(Op::Const, vec![])],
                    ),
                    &format!("{opname} {{d}},{{1}}"),
                    Cost::new(1, 1),
                );
                b.with_pred(rule, Predicate::ConstFits { bits: 6 }).with_units(rule, units::ALU);
            }
        } else {
            for (op, opname) in [(BinOp::Shl, "SHL1"), (BinOp::Shr, "SHR1")] {
                let rule = b.pat(
                    reg,
                    PatNode::op(
                        Op::Bin(op),
                        vec![PatNode::nt(reg), PatNode::op(Op::Const, vec![])],
                    ),
                    &format!("{opname} {{d}}"),
                    Cost::new(1, 1),
                );
                b.with_pred(rule, Predicate::ConstEquals(1)).with_units(rule, units::ALU);
            }
        }
    }

    /// Saturation rules per the [`ModeSet`] axis. `src` is the second
    /// operand nonterminal (memory on homogeneous files, the `x` side on
    /// special-purpose ones).
    fn sat_rules(
        &self,
        b: &mut TargetBuilder,
        reg: crate::nonterm::NonTermId,
        src: crate::nonterm::NonTermId,
    ) {
        match self.modes {
            ModeSet::None => {}
            ModeSet::Dedicated => {
                for (op, opname) in [(BinOp::SatAdd, "SADD"), (BinOp::SatSub, "SSUB")] {
                    let rule = b.pat(
                        reg,
                        PatNode::op(Op::Bin(op), vec![PatNode::nt(reg), PatNode::nt(src)]),
                        &format!("{opname} {{d}},{{1}}"),
                        Cost::new(1, 1),
                    );
                    b.with_units(rule, units::ALU);
                }
            }
            ModeSet::Residual { default_on } => {
                let sat = b.mode(ModeDesc {
                    name: "sat".into(),
                    set_asm: "SSAT".into(),
                    clear_asm: "RSAT".into(),
                    cost: Cost::new(1, 1),
                    default_on,
                });
                for (op, opname) in [(BinOp::SatAdd, "ADD"), (BinOp::SatSub, "SUB")] {
                    let rule = b.pat(
                        reg,
                        PatNode::op(Op::Bin(op), vec![PatNode::nt(reg), PatNode::nt(src)]),
                        &format!("{opname} {{d}},{{1}}"),
                        Cost::new(1, 1),
                    );
                    b.with_mode(rule, sat, true).with_units(rule, units::ALU).mode_sensitive(rule);
                }
            }
        }
    }
}

/// Builds the target for one seed — the one-call form of
/// [`CubeParams::from_seed`] + [`CubeParams::build`].
///
/// # Example
///
/// ```
/// let t = record_isa::cube::target_from_seed(0xDAC97);
/// assert!(t.name.starts_with("cube-"));
/// t.validate().unwrap();
/// ```
pub fn target_from_seed(seed: u64) -> TargetDesc {
    CubeParams::from_seed(seed).build().expect("seeded cube points are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_points_validate_and_build() {
        for seed in 0..256u64 {
            let p = CubeParams::from_seed(seed);
            assert_eq!(p.validate(), Ok(()), "seed {seed}");
            let t = p.build().unwrap();
            t.validate().unwrap();
            assert_eq!(t.name, p.name());
        }
    }

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(CubeParams::from_seed(42), CubeParams::from_seed(42));
        assert_eq!(target_from_seed(42).fingerprint(), target_from_seed(42).fingerprint());
    }

    #[test]
    fn validate_names_the_degenerate_axis() {
        let mut p = CubeParams::from_seed(1);
        p.word_width = 128;
        assert_eq!(p.validate(), Err(CubeError::WordWidth(128)));

        let mut p = CubeParams::from_seed(1);
        p.reg_file = RegFile::Homogeneous { n_regs: 0 };
        assert_eq!(p.validate(), Err(CubeError::EmptyRegClass("r")));

        let mut p = CubeParams::from_seed(1);
        p.banks = 1;
        p.parallel = Some(ParallelSpec { slots: 2, distinct_banks: true });
        assert_eq!(p.validate(), Err(CubeError::DistinctBanksNeedDualMemory));

        let mut p = CubeParams::from_seed(1);
        p.agu = None;
        p.has_direct = false;
        assert_eq!(p.validate(), Err(CubeError::IndirectNeedsAgu));

        let mut p = CubeParams::from_seed(1);
        p.imm_bits = 40;
        p.word_width = 16;
        assert_eq!(p.validate(), Err(CubeError::ImmBits { imm: 40, word: 16 }));
        assert!(p.build().is_err());
    }

    /// The three ASIP presets, each with the target name that encodes it.
    fn presets() -> [(CubeParams, &'static str); 3] {
        [
            (CubeParams::asip_default(), "cube-w16-h4-b1x2048d-agu2p1-seq-nomode-mul-i8"),
            (CubeParams::asip_minimal(), "cube-w16-h2-b1x2048d-noagu-seq-nomode-i8"),
            (CubeParams::asip_dsp(), "cube-w16-h4-b1x2048d-agu4p1-seq-sat0-mac-bs-i12-rpt4096"),
        ]
    }

    #[test]
    fn asip_presets_validate_build_and_carry_their_names() {
        for (p, name) in presets() {
            assert_eq!(p.validate(), Ok(()), "{name}");
            let t = p.build().unwrap();
            t.validate().unwrap();
            assert_eq!(t.name, name);
        }
    }

    #[test]
    fn multiplierless_asip_multiplies_only_through_its_shift_rule() {
        let t = CubeParams::asip_minimal().build().unwrap();
        let mul_rules: Vec<_> =
            t.rules.iter().filter(|r| r.root_op() == Some(Op::Bin(BinOp::Mul))).collect();
        assert_eq!(mul_rules.len(), 1);
        assert_eq!(mul_rules[0].pred, Some(Predicate::ConstPow2));
    }

    #[test]
    fn only_the_dsp_asip_has_a_mac() {
        for (p, name) in presets() {
            let has_mac = p.build().unwrap().rules.iter().any(|r| r.asm.starts_with("MAC "));
            assert_eq!(has_mac, p == CubeParams::asip_dsp(), "{name}");
        }
    }

    #[test]
    fn saturation_and_the_agu_are_optional() {
        let dsp = CubeParams::asip_dsp().build().unwrap();
        let min = CubeParams::asip_minimal().build().unwrap();
        assert_eq!(dsp.modes.len(), 1);
        assert!(min.modes.is_empty());
        assert!(dsp.agu.is_some());
        assert!(min.agu.is_none());
    }

    #[test]
    fn asip_word_width_is_honoured() {
        let p = CubeParams { word_width: 24, ..CubeParams::asip_default() };
        assert_eq!(p.build().unwrap().word_width, 24);
    }

    #[test]
    fn asip_without_registers_is_refused() {
        let p = CubeParams {
            reg_file: RegFile::Homogeneous { n_regs: 0 },
            ..CubeParams::asip_default()
        };
        assert_eq!(p.validate(), Err(CubeError::EmptyRegClass("r")));
        assert_eq!(p.build().err(), Some(CubeError::EmptyRegClass("r")));
    }

    #[test]
    fn special_purpose_points_have_multiplier_sides() {
        let mut found = false;
        for seed in 0..64u64 {
            let p = CubeParams::from_seed(seed);
            if let RegFile::SpecialPurpose { .. } = p.reg_file {
                found = true;
                let t = p.build().unwrap();
                assert!(t.reg_class("x").is_some());
                assert!(t.reg_class("y").is_some());
                assert!(t.rules.iter().any(|r| r.asm.starts_with("MPY")));
            }
        }
        assert!(found, "no special-purpose point in 64 seeds");
    }

    #[test]
    fn corner_labels_cover_multiple_corners() {
        let corners: std::collections::BTreeSet<String> =
            (0..128u64).map(|s| CubeParams::from_seed(s).corner()).collect();
        assert!(corners.len() >= 8, "only {} corners in 128 seeds: {corners:?}", corners.len());
    }
}
