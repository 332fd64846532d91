//! Reproduction of the paper's illustrative figures as executable checks:
//! Fig. 1 (processor cube), Fig. 3 (instruction-set extraction) and
//! Figs. 4–5 (covering a data-flow tree with instruction patterns).

use record_burg::Matcher;
use record_ir::{BinOp, Op, Tree};
use record_isa::pattern::Cost;
use record_isa::target::TargetBuilder;
use record_isa::taxonomy::{paper_examples, CubePoint};
use record_isa::PatNode as P;

/// Fig. 1 — the processor cube has eight named corners and the paper's
/// example processors classify onto it.
#[test]
fn figure1_processor_cube() {
    let corners = CubePoint::corners();
    assert_eq!(corners.len(), 8);
    let labels: Vec<&str> = corners.iter().map(|c| c.label()).collect();
    for expected in ["off-the-shelf processor", "DSP", "ASIP", "ASSP", "DSP core"] {
        assert!(labels.contains(&expected), "{labels:?}");
    }
    assert!(paper_examples().len() >= 5);
}

/// Fig. 3 — extraction from the register-file/accumulator netlist yields
/// `Reg[bb] := Reg[aa] + acc` with instruction bits `/aa-0-0-bb/`
/// (the `aa`/`bb` fields address the register file; `c1 = 0`, `c2 = 0`
/// select the operand paths).
#[test]
fn figure3_instruction_extraction() {
    let netlist = record_ise::demo::fig3_netlist();
    let insns = record_ise::extract(&netlist).unwrap();
    let texts: Vec<String> = insns.iter().map(|i| i.to_string()).collect();
    assert!(
        texts.iter().any(|t| t == "Reg[bb] := (Reg[aa] + acc)  /c1=0,c2=0/"),
        "Fig. 3 instruction missing from: {texts:#?}"
    );
}

/// Figs. 4–5 — the pattern set of Fig. 4 covers the example data-flow
/// tree; the two-operator pattern ("add immediate to memory addressed by
/// the product of two registers") wins over composing single-operator
/// patterns, and the cover has the minimal cost.
#[test]
fn figures4_5_covering() {
    // the Fig. 4 instruction patterns
    let mut b = TargetBuilder::new("fig4", 16);
    let reg_class = b.reg_class("reg", 4);
    let reg = b.nt_reg("reg", reg_class);
    let mem = b.nt_mem("mem");
    let imm = b.nt_imm("imm", 16);
    b.base_mem_rules(mem);
    b.base_imm_rule(imm);
    b.chain(reg, mem, "MOVE {0}", Cost::new(1, 1)); // move memory→register
    b.chain(reg, imm, "LDC {0}", Cost::new(1, 1)); // load constant
    b.pat(
        reg,
        P::op(Op::Bin(BinOp::Add), vec![P::nt(reg), P::nt(imm)]),
        "ADDI {1}",
        Cost::new(1, 1),
    );
    b.pat(
        reg,
        P::op(Op::Bin(BinOp::Mul), vec![P::nt(mem), P::nt(imm)]),
        "MULI {0},{1}",
        Cost::new(1, 1),
    );
    b.pat(
        reg,
        P::op(
            Op::Bin(BinOp::Add),
            vec![P::op(Op::Bin(BinOp::Mul), vec![P::nt(reg), P::nt(reg)]), P::nt(imm)],
        ),
        "MADDI {0},{1},{2}",
        Cost::new(1, 1),
    );
    b.store(reg, "ST {d}", Cost::new(1, 1));
    let target = b.build().unwrap();
    let matcher = Matcher::new(&target);
    let goal = target.nt("reg").unwrap();

    // the Fig. 4 data-flow tree:  (x * y) + 9  over two memory refs
    let dfg_tree = Tree::bin(
        BinOp::Add,
        Tree::bin(BinOp::Mul, Tree::var("x"), Tree::var("y")),
        Tree::constant(9),
    );
    let cover = matcher.cover(&dfg_tree, goal).expect("Fig. 5: the tree is coverable");
    // MOVE x; MOVE y; MADDI — 3 patterns, as in the figure's best cover
    assert_eq!(cover.cost.words, 3);
    assert_eq!(cover.pattern_count(&target), 3);
    let dump = cover.root.dump(&target);
    assert!(dump.contains("MADDI"), "{dump}");

    // single-operator composition needs 4 instructions; the DP never
    // returns it when MADDI exists. Check with a grammar that has a plain
    // register-register multiply instead of the two-operator pattern:
    let mut b2 = TargetBuilder::new("fig4-without-maddi", 16);
    let rc2 = b2.reg_class("reg", 4);
    let reg2 = b2.nt_reg("reg", rc2);
    let mem2 = b2.nt_mem("mem");
    let imm2 = b2.nt_imm("imm", 16);
    b2.base_mem_rules(mem2);
    b2.base_imm_rule(imm2);
    b2.chain(reg2, mem2, "MOVE {0}", Cost::new(1, 1));
    b2.chain(reg2, imm2, "LDC {0}", Cost::new(1, 1));
    b2.pat(
        reg2,
        P::op(Op::Bin(BinOp::Add), vec![P::nt(reg2), P::nt(imm2)]),
        "ADDI {1}",
        Cost::new(1, 1),
    );
    b2.pat(
        reg2,
        P::op(Op::Bin(BinOp::Mul), vec![P::nt(reg2), P::nt(reg2)]),
        "MUL {0},{1}",
        Cost::new(1, 1),
    );
    b2.store(reg2, "ST {d}", Cost::new(1, 1));
    let reduced = b2.build().unwrap();
    let matcher2 = Matcher::new(&reduced);
    let goal2 = reduced.nt("reg").unwrap();
    let cover2 = matcher2.cover(&dfg_tree, goal2).unwrap();
    assert_eq!(cover2.cost.words, 4, "{}", cover2.root.dump(&reduced));
}

/// Section 4.3.3 — "RECORD uses algebraic rules for transforming the
/// original data flow tree into equivalent ones and calls the
/// iburg-matcher with each tree. The tree requiring the smallest number
/// of covering patterns is then selected."
#[test]
fn variant_enumeration_reduces_cover_cost() {
    let target = record_isa::targets::tic25::target();
    let matcher = Matcher::new(&target);
    let acc = target.nt("acc").unwrap();
    // (c*x) + y: the commuted form matches the accumulate pattern
    let tree = Tree::bin(
        BinOp::Add,
        Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("x")),
        Tree::var("y"),
    );
    let variants = record_ir::transform::variants(&tree, &record_ir::transform::RuleSet::all(), 32);
    let costs: Vec<u32> =
        variants.iter().filter_map(|v| matcher.cover(v, acc).map(|c| c.cost.words)).collect();
    let best = costs.iter().min().unwrap();
    assert!(
        best <= costs.first().unwrap(),
        "the enumerated minimum can never exceed the original tree's cost"
    );
    // 2*x becomes a 1-word load-with-shift through the mul→shift rule
    let tree2 = Tree::bin(BinOp::Mul, Tree::constant(2), Tree::var("x"));
    let variants2 =
        record_ir::transform::variants(&tree2, &record_ir::transform::RuleSet::all(), 32);
    let best2 =
        variants2.iter().filter_map(|v| matcher.cover(v, acc).map(|c| c.cost.words)).min().unwrap();
    assert_eq!(best2, 1);
}

/// Fig. 2's left input: a compiler generated from an RT-level netlist
/// compiles and runs a program with no hand-written target description.
#[test]
fn figure2_netlist_to_running_code() {
    let netlist = record_ise::demo::acc_machine_netlist();
    let (compiler, _) =
        record::Compiler::from_netlist("accgen", &netlist, &Default::default()).unwrap();
    let code = compiler
        .compile(
            "program p; in a, b: fix; out y: fix;
             begin y := a * b + 7 - a; end",
            record::CompileRequest::default(),
        )
        .unwrap()
        .code;
    let inputs: std::collections::HashMap<record_ir::Symbol, Vec<i64>> =
        [(record_ir::Symbol::new("a"), vec![6]), (record_ir::Symbol::new("b"), vec![9])]
            .into_iter()
            .collect();
    let (out, _) = record_sim::run_program(&code, compiler.target(), &inputs).unwrap();
    assert_eq!(out[&record_ir::Symbol::new("y")], vec![6 * 9 + 7 - 6]);
}
