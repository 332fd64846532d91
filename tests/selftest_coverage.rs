//! Which rules `record::selftest::generate` exercises, per target.
//!
//! The generator justifies each rule's operands, checks that the rule's
//! probe tree is covered through the rule, and emits it. The covered and
//! uncovered rule lists are pinned here, so a change to how probe trees
//! are matched cannot quietly move a rule from one list to the other.

use record_isa::cube::CubeParams;
use record_isa::TargetDesc;

/// The seed every pinned list was generated with.
const SEED: u64 = 0xC0FFEE;

/// `(target, covered rule ids, uncovered rule ids)`.
fn pinned() -> Vec<(TargetDesc, Vec<u32>, Vec<u32>)> {
    vec![
        (
            record_isa::targets::tic25::target(),
            vec![
                5, 6, 7, 8, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
                30, 31, 32, 33, 34, 35,
            ],
            vec![9, 10, 12],
        ),
        (
            record_isa::targets::dsp56k::target(),
            vec![5, 6, 10, 11, 12, 13, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 30],
            vec![3, 4, 7, 8, 9, 14, 15, 17, 18],
        ),
        (CubeParams::asip_dsp().build().unwrap(), (3..=26).filter(|&r| r != 5).collect(), vec![5]),
        (record_isa::cube::target_from_seed(35), (3..=26).filter(|&r| r != 5).collect(), vec![5]),
    ]
}

#[test]
fn selftest_rule_coverage_is_pinned() {
    for (target, covered, uncovered) in pinned() {
        let st = record::selftest::generate(&target, SEED).unwrap();
        let ids = |rules: &[record_isa::RuleId]| rules.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(
            (ids(&st.covered), ids(&st.uncovered)),
            (covered, uncovered),
            "{}: covered and uncovered rules",
            target.name
        );
    }
}
