//! A dual-bank, parallel-move DSP core in the Motorola DSP56000 mould.
//!
//! The traits that matter for code generation, per Section 3.3 of the
//! paper:
//!
//! * **parallel moves**: an arithmetic instruction can carry up to two
//!   register↔memory moves in the same word — "not taking advantage of
//!   this parallelism means loosing a factor of two in the performance",
//! * **dual memory banks** X and Y: the two parallel moves must address
//!   *different* banks, which is what the memory-bank assignment
//!   optimization (Sudarsanam/Malik) maximizes,
//! * heterogeneous input registers: the multiplier reads `x` registers on
//!   one side and `y` registers on the other,
//! * single-instruction `MAC` (multiply–accumulate) into accumulators.
//!
//! Compared with the real 56000 the model is word-width-agnostic (we use
//! the workspace-wide 16-bit word so all targets simulate identically)
//! and omits the bit-exact 56-bit accumulator pipeline.

use record_ir::{BinOp, Op, UnOp};

use crate::pattern::{units, Cost, PatNode};
use crate::target::{AguDesc, LoopCtrl, ParallelDesc, RptDesc, TargetBuilder, TargetDesc};

/// Builds the DSP56k-like target description.
///
/// # Example
///
/// ```
/// let t = record_isa::targets::dsp56k::target();
/// assert_eq!(t.memory.banks, 2);
/// assert!(t.parallel.is_some());
/// ```
pub fn target() -> TargetDesc {
    let mut b = TargetBuilder::new("dsp56k", 16);

    let a_c = b.reg_class("a", 2); // accumulators a0 ("a"), a1 ("b")
    let x_c = b.reg_class("x", 2); // multiplier left inputs x0, x1
    let y_c = b.reg_class("y", 2); // multiplier right inputs y0, y1

    let a = b.nt_reg("a", a_c);
    let x = b.nt_reg("x", x_c);
    let y = b.nt_reg("y", y_c);
    let mem = b.nt_mem("mem");
    let imm8 = b.nt_imm("imm8", 8);

    b.base_mem_rules(mem);
    b.base_imm_rule(imm8);

    // Moves between memory and every register class. These are the
    // operations parallel packing absorbs into arithmetic instructions.
    let mv_x = b.chain(x, mem, "MOVE {0},{d}", Cost::new(1, 1));
    b.with_units(mv_x, units::MOVE);
    let mv_y = b.chain(y, mem, "MOVE {0},{d}", Cost::new(1, 1));
    b.with_units(mv_y, units::MOVE);
    let mv_a = b.chain(a, mem, "MOVE {0},{d}", Cost::new(1, 1));
    b.with_units(mv_a, units::MOVE);
    let mv_imm = b.chain(a, imm8, "MOVE #{0},{d}", Cost::new(1, 1));
    b.with_units(mv_imm, units::MOVE);
    let spill = b.chain(mem, a, "MOVE {0},{d}", Cost::new(1, 1));
    b.with_units(spill, units::MOVE);
    // register-to-register transfers keep the matcher flexible
    let mv_xa = b.chain(a, x, "MOVE {0},{d}", Cost::new(1, 1));
    b.with_units(mv_xa, units::MOVE);
    let mv_ya = b.chain(a, y, "MOVE {0},{d}", Cost::new(1, 1));
    b.with_units(mv_ya, units::MOVE);

    // Multiply and multiply–accumulate: x-side times y-side.
    let mpy = b.pat(
        a,
        PatNode::op(Op::Bin(BinOp::Mul), vec![PatNode::nt(x), PatNode::nt(y)]),
        "MPY {0},{1},{d}",
        Cost::new(1, 1),
    );
    b.with_units(mpy, units::MUL);
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

    // Accumulator arithmetic with register operands.
    for (op, name) in [(BinOp::Add, "ADD"), (BinOp::Sub, "SUB")] {
        for src in [x, y] {
            let rule = b.pat(
                a,
                PatNode::op(Op::Bin(op), vec![PatNode::nt(a), PatNode::nt(src)]),
                &format!("{name} {{1}},{{d}}"),
                Cost::new(1, 1),
            );
            b.with_units(rule, units::ALU).mode_sensitive(rule);
        }
        // accumulator-accumulator form
        let rule = b.pat(
            a,
            PatNode::op(Op::Bin(op), vec![PatNode::nt(a), PatNode::nt(a)]),
            &format!("{name} {{1}},{{d}}"),
            Cost::new(1, 1),
        );
        b.with_units(rule, units::ALU).mode_sensitive(rule);
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
    // single-bit shifts
    for (op, name) in [(BinOp::Shl, "ASL"), (BinOp::Shr, "ASR")] {
        let rule = b.pat(
            a,
            PatNode::op(Op::Bin(op), vec![PatNode::nt(a), PatNode::op(Op::Const, vec![])]),
            &format!("{name} {{d}}"),
            Cost::new(1, 1),
        );
        b.with_pred(rule, crate::pattern::Predicate::ConstEquals(1)).with_units(rule, units::ALU);
    }

    // Saturating arithmetic is the 56k's natural mode for moves out of
    // accumulators; we model explicit saturating adds under a mode like
    // on the C25 so the mode-minimization pass has work on both targets.
    let sat = b.mode(crate::target::ModeDesc {
        name: "sat".into(),
        set_asm: "ORI #$02,MR".into(),
        clear_asm: "ANDI #$FD,MR".into(),
        cost: Cost::new(1, 1),
        default_on: false,
    });
    for (op, name) in [(BinOp::SatAdd, "ADD"), (BinOp::SatSub, "SUB")] {
        let rule = b.pat(
            a,
            PatNode::op(Op::Bin(op), vec![PatNode::nt(a), PatNode::nt(x)]),
            &format!("{name} {{1}},{{d}}"),
            Cost::new(1, 1),
        );
        b.with_mode(rule, sat, true).with_units(rule, units::ALU).mode_sensitive(rule);
    }

    b.store(a, "MOVE {0},{d}", Cost::new(1, 1));

    // Every constant of the 16-bit word: a two-word long-immediate load.
    // Declared after every other nonterminal and rule, so their ids (and
    // binary encodings) stay put. It has no move unit and two words, so
    // parallel-move packing leaves it alone.
    let imm16 = b.nt_imm("imm16", 16);
    b.base_imm_rule(imm16);
    b.chain(a, imm16, "MOVE #{0},{d}", Cost::new(2, 2));

    b.memory(2, 4096);
    b.direct_addressing(false);
    b.agu(AguDesc {
        n_ars: 8,
        post_range: 1,
        ar_load_cost: Cost::new(1, 1),
        ar_add_cost: Cost::new(1, 1),
    });
    b.loop_ctrl(LoopCtrl {
        init_cost: Cost::new(2, 2),
        end_cost: Cost::new(0, 0), // DO-loop hardware: zero-overhead back edge
        rpt: Some(RptDesc { cost: Cost::new(1, 1), max_count: 65536 }),
    });
    b.parallel(ParallelDesc {
        max_moves: 2,
        move_units: units::MOVE,
        moves_need_distinct_banks: true,
    });

    b.build().expect("dsp56k description is internally consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_is_valid() {
        target().validate().unwrap();
    }

    #[test]
    fn dual_bank_with_parallel_moves() {
        let t = target();
        assert_eq!(t.memory.banks, 2);
        let par = t.parallel.as_ref().unwrap();
        assert_eq!(par.max_moves, 2);
        assert!(par.moves_need_distinct_banks);
    }

    #[test]
    fn single_instruction_mac() {
        let t = target();
        let mac = t.rules.iter().find(|r| r.asm.starts_with("MAC ")).unwrap();
        assert_eq!(mac.cost.words, 1);
        // MAC covers two tree operators (Add over Mul)
        match &mac.rhs {
            crate::pattern::Rhs::Pat(p) => assert_eq!(p.op_count(), 2),
            _ => panic!("MAC must be a pattern rule"),
        }
    }

    #[test]
    fn multiplier_input_sides_are_distinct_classes() {
        let t = target();
        assert!(t.reg_class("x").is_some());
        assert!(t.reg_class("y").is_some());
        assert_ne!(t.reg_class("x"), t.reg_class("y"));
    }

    #[test]
    fn zero_overhead_hardware_loop() {
        let t = target();
        assert_eq!(t.loop_ctrl.end_cost.words, 0);
    }
}
