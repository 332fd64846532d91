//! Which operators each target `recordd` serves cannot compile.
//!
//! `record::selftest::operator_gaps` compiles one probe statement per
//! operator the frontend can produce. Every target
//! `record_serve::resolve_target` names (the `risc<N>` family through
//! `risc8`) is checked against its pinned gaps, so a target that loses an
//! operator fails here, and one that gains an operator has its pin
//! shortened.

use record_ir::Op;

/// Each target's gaps, as operator mnemonics (`#` is the widest positive
/// constant of the word, `ref` a plain variable). No target divides or
/// rounds; shifts, `min` and `max` over variables need the ALU's general
/// forms; the ASIPs cannot load a full-width constant, and `asip-min`
/// cannot multiply.
const PINNED: [(&str, &[&str]); 6] = [
    ("tic25", &["/", "<<", ">>", "min", "max", "round"]),
    ("dsp56k", &["/", "<<", ">>", "min", "max", "round"]),
    ("asip-dsp", &["#", "/", "<<", ">>", "min", "max", "round"]),
    ("asip-min", &["#", "*", "/", "<<", ">>", "+s", "-s", "min", "max", "round"]),
    ("asip-default", &["#", "/", "<<", ">>", "+s", "-s", "min", "max", "round"]),
    ("risc8", &["/", "+s", "-s", "round"]),
];

#[test]
fn every_served_target_has_its_pinned_operator_gaps() {
    let got: Vec<(&str, Vec<String>)> = PINNED
        .iter()
        .map(|(name, _)| {
            let target = record_serve::resolve_target(name).unwrap();
            let gaps = record::selftest::operator_gaps(&target);
            (*name, gaps.iter().map(Op::to_string).collect())
        })
        .collect();
    let want: Vec<(&str, Vec<String>)> = PINNED
        .iter()
        .map(|(name, gaps)| (*name, gaps.iter().map(|g| g.to_string()).collect()))
        .collect();
    assert_eq!(got, want);
}
