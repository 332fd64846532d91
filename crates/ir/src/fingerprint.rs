//! The canonical byte form of a lowered program, and its fingerprint.
//!
//! [`program_bytes`] writes a [`Lir`] as a tagged, length-prefixed
//! pre-order encoding, each statement's tree read from the program's pool
//! node by node (a repeated subtree is written at every use, and nodes no
//! statement reaches are not written): every enum variant starts with its own tag byte,
//! every string and sequence with its length, and every other field has a
//! fixed width. The encoding can therefore be read back in exactly one
//! way, so two programs have equal bytes exactly when they are
//! structurally equal.
//!
//! The compile cache keys compiled output by *what was compiled*, not by
//! source text: two textually different programs that lower to the same
//! [`Lir`] fingerprint identically, and a one-constant edit anywhere
//! changes the fingerprint. [`program_fingerprint`] is the 64-bit FNV-1a
//! hash of the canonical bytes, implemented locally so this crate stays
//! dependency-free. It is deterministic across processes and platforms
//! (unlike `std::hash::DefaultHasher`, which is randomly keyed per
//! process), which is what lets the fingerprint key an *on-disk* cache.
//! Collisions are still possible in 64 bits; callers that cannot
//! tolerate them compare the canonical bytes, the way `record`'s compile
//! cache does.

use crate::lir::{Lir, LirItem, StorageKind, VarInfo};
use crate::mem::{Bank, Index, MemRef};
use crate::{TreeId, TreeNode, TreePool};

/// The canonical bytes of a lowered program: equal exactly when the
/// programs are structurally equal.
///
/// ```
/// use record_ir::{dfl, lower};
/// use record_ir::fingerprint::program_bytes;
///
/// let lir = |src| lower::lower(&dfl::parse(src).unwrap()).unwrap();
/// let a = lir("program p; var x, y: fix; begin y := x + 1; end");
/// // the same program, written differently
/// let b = lir("program p; var x: fix; var y: fix; begin y := (x + 1); end");
/// let c = lir("program p; var x, y: fix; begin y := x + 2; end");
/// assert_eq!(program_bytes(&a), program_bytes(&b));
/// assert_ne!(program_bytes(&a), program_bytes(&c));
/// ```
pub fn program_bytes(lir: &Lir) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(512));
    w.str(lir.name.as_str());
    w.u32(lir.vars.len() as u32);
    for v in &lir.vars {
        w.var(v);
    }
    w.items(&lir.pool, &lir.body);
    w.0
}

/// A stable fingerprint of a lowered program: the FNV-1a hash of its
/// [`program_bytes`].
///
/// Deterministic across processes; sensitive to every variable
/// declaration, loop shape and expression node. Suitable as a
/// content-addressed cache key *when confirmed by the canonical bytes*
/// (64 bits cannot rule out collisions by itself).
///
/// ```
/// use record_ir::{dfl, lower};
///
/// let lir = |src| lower::lower(&dfl::parse(src).unwrap()).unwrap();
/// let a = lir("program p; var x, y: fix; begin y := x + 1; end");
/// let b = lir("program p; var x, y: fix; begin y := x + 2; end");
/// let fp = record_ir::fingerprint::program_fingerprint;
/// assert_eq!(fp(&a), fp(&a));
/// assert_ne!(fp(&a), fp(&b));
/// ```
pub fn program_fingerprint(lir: &Lir) -> u64 {
    fnv1a(&program_bytes(lir))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The canonical encoder: little-endian fixed-width fields, `u32`
/// lengths before strings and sequences, a tag byte before each variant.
struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }

    fn var(&mut self, v: &VarInfo) {
        self.str(v.name.as_str());
        self.u32(v.len);
        self.u8(match v.kind {
            StorageKind::Var => 0,
            StorageKind::In => 1,
            StorageKind::Out => 2,
        });
        match v.bank {
            None => self.u8(0),
            Some(b) => {
                self.u8(1);
                self.bank(b);
            }
        }
        self.u8(u8::from(v.is_fix));
    }

    fn bank(&mut self, b: Bank) {
        self.u8(match b {
            Bank::X => 0,
            Bank::Y => 1,
        });
    }

    fn items(&mut self, pool: &TreePool, items: &[LirItem]) {
        self.u32(items.len() as u32);
        for item in items {
            match item {
                LirItem::Assign(a) => {
                    self.u8(0);
                    self.mem_ref(&a.dst);
                    self.tree(pool, a.src);
                }
                LirItem::Loop { var, count, body } => {
                    self.u8(1);
                    self.str(var.as_str());
                    self.u32(*count);
                    self.items(pool, body);
                }
            }
        }
    }

    fn mem_ref(&mut self, r: &MemRef) {
        match r {
            MemRef::Scalar(s) => {
                self.u8(0);
                self.str(s.as_str());
            }
            MemRef::Array { base, index } => {
                self.u8(1);
                self.str(base.as_str());
                self.index(index);
            }
        }
    }

    fn index(&mut self, ix: &Index) {
        match ix {
            Index::Const(c) => {
                self.u8(0);
                self.i64(*c);
            }
            Index::Var { var, offset } => {
                self.u8(1);
                self.str(var.as_str());
                self.i64(*offset);
            }
            Index::RevVar { var, offset } => {
                self.u8(2);
                self.str(var.as_str());
                self.i64(*offset);
            }
        }
    }

    fn tree(&mut self, pool: &TreePool, id: TreeId) {
        match pool.node(id) {
            TreeNode::Const(c) => {
                self.u8(0);
                self.i64(*c);
            }
            TreeNode::Mem(r) => {
                self.u8(1);
                self.mem_ref(r);
            }
            TreeNode::Temp(s) => {
                self.u8(2);
                self.str(s.as_str());
            }
            TreeNode::Bin(op, a, b) => {
                self.u8(3);
                self.u8(*op as u8);
                self.tree(pool, *a);
                self.tree(pool, *b);
            }
            TreeNode::Un(op, a) => {
                self.u8(4);
                self.u8(*op as u8);
                self.tree(pool, *a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dfl, lower, AssignStmt, BinOp, Symbol, Tree, UnOp};

    fn lir(src: &str) -> Lir {
        lower::lower(&dfl::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn identical_programs_fingerprint_identically() {
        let src = "program fir; var x: fix[4]; var y: fix;
                   begin for i in 0..3 loop y := y + x[i]; end loop; end";
        assert_eq!(program_fingerprint(&lir(src)), program_fingerprint(&lir(src)));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_kind_of_edit_changes_the_fingerprint() {
        let base = lir("program p; var x, y: fix; begin y := x + 1; end");
        let edits = [
            // constant
            "program p; var x, y: fix; begin y := x + 2; end",
            // operator
            "program p; var x, y: fix; begin y := x * 1; end",
            // operand order
            "program p; var x, y: fix; begin y := 1 + x; end",
            // program name
            "program q; var x, y: fix; begin y := x + 1; end",
            // extra declaration
            "program p; var x, y, z: fix; begin y := x + 1; end",
            // bank annotation
            "program p; var x: fix bank Y; var y: fix; begin y := x + 1; end",
        ];
        for e in edits {
            assert_ne!(program_fingerprint(&base), program_fingerprint(&lir(e)), "edit: {e}");
        }
    }

    #[test]
    fn loop_shape_is_significant() {
        let a = lir("program p; var y: fix; begin for i in 0..3 loop y := y; end loop; end");
        let b = lir("program p; var y: fix; begin for i in 0..4 loop y := y; end loop; end");
        let c = lir("program p; var y: fix; begin for j in 0..3 loop y := y; end loop; end");
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b), "trip count");
        assert_ne!(program_fingerprint(&a), program_fingerprint(&c), "counter name");
    }

    #[test]
    fn repeated_subtrees_are_written_at_every_use() {
        let once = lir("program p; var a, b, y: fix; begin y := a * b; end");
        let twice = lir("program p; var a, b, y: fix; begin y := a * b + a * b; end");
        assert_ne!(program_fingerprint(&once), program_fingerprint(&twice));
    }

    /// The on-disk compile cache names its files by the fingerprint and
    /// compares the bytes, so neither may change without a cache format
    /// version bump.
    #[test]
    fn canonical_bytes_are_pinned() {
        let l = lir("program p; var x, y: fix; begin y := x + 1; end");
        #[rustfmt::skip]
        let want: &[u8] = &[
            1, 0, 0, 0, b'p', // name
            2, 0, 0, 0, // declarations
            1, 0, 0, 0, b'x', 1, 0, 0, 0, 0, 0, 1, // x: 1 word, var, no bank, fix
            1, 0, 0, 0, b'y', 1, 0, 0, 0, 0, 0, 1, // y: the same
            1, 0, 0, 0, // body items
            0, 0, 1, 0, 0, 0, b'y', // assignment to scalar y
            3, 0, // binary +
            1, 0, 1, 0, 0, 0, b'x', // memory operand: scalar x
            0, 1, 0, 0, 0, 0, 0, 0, 0, // constant 1
        ];
        assert_eq!(program_bytes(&l), want);
        assert_eq!(program_fingerprint(&l), 0xd05a_923b_c978_8d48);
    }

    /// The programs of the corpus the canonical form is pinned over: the
    /// DSPStone kernels and 2000 generated programs, as lowered.
    fn corpus() -> Vec<Lir> {
        let mut programs: Vec<Lir> =
            record_dspstone::kernels().iter().map(|k| lir(k.source)).collect();
        let mut rng = record_prop::Rng::new(0xDAC97);
        for _ in 0..2000 {
            if let Ok(ast) = dfl::parse(&record_prop::dfl::gen_program(&mut rng)) {
                programs.extend(lower::lower(&ast).ok());
            }
        }
        programs
    }

    /// Over the corpus, two programs have equal bytes exactly when they
    /// are equal, and equal programs fingerprint equally.
    #[test]
    fn equal_bytes_exactly_when_equal_programs() {
        let programs = corpus();
        let bytes: Vec<Vec<u8>> = programs.iter().map(program_bytes).collect();
        let mut by_bytes: std::collections::HashMap<&[u8], usize> = Default::default();
        let mut equal_pairs = 0usize;
        for (i, b) in bytes.iter().enumerate() {
            match by_bytes.get(b.as_slice()) {
                Some(&j) => {
                    assert_eq!(programs[i], programs[j], "equal bytes, unequal programs");
                    assert_eq!(
                        program_fingerprint(&programs[i]),
                        program_fingerprint(&programs[j])
                    );
                    equal_pairs += 1;
                }
                None => {
                    by_bytes.insert(b, i);
                }
            }
            // the bytes of a structurally equal copy are equal
            assert_eq!(program_bytes(&programs[i].clone()), *b);
        }
        // every program equal to an earlier one was found through its bytes
        let distinct =
            programs.iter().enumerate().filter(|(i, p)| !programs[..*i].contains(p)).count();
        assert_eq!(distinct, by_bytes.len());
        assert_eq!(distinct + equal_pairs, programs.len());
    }

    /// The single edits of a program: each returns an unequal copy, or
    /// `None` when the program has nothing of that kind to edit.
    fn edits(lir: &Lir) -> Vec<(&'static str, Option<Lir>)> {
        /// Applies `edit` to the first assignment it accepts.
        fn first_assign(
            items: &mut [LirItem],
            edit: &mut impl FnMut(&mut AssignStmt) -> bool,
        ) -> bool {
            items.iter_mut().any(|item| match item {
                LirItem::Assign(a) => edit(a),
                LirItem::Loop { body, .. } => first_assign(body, edit),
            })
        }
        /// Applies `edit` to the first loop.
        fn first_loop(items: &mut [LirItem], edit: &mut impl FnMut(&mut Symbol, &mut u32)) -> bool {
            items.iter_mut().any(|item| match item {
                LirItem::Assign(_) => false,
                LirItem::Loop { var, count, .. } => {
                    edit(var, count);
                    true
                }
            })
        }
        /// Applies `edit` to the first subtree (pre-order) it accepts.
        fn first_node(t: &mut Tree, edit: &mut impl FnMut(&mut Tree) -> bool) -> bool {
            if edit(t) {
                return true;
            }
            match t {
                Tree::Bin(_, a, b) => first_node(a, edit) || first_node(b, edit),
                Tree::Un(_, a) => first_node(a, edit),
                _ => false,
            }
        }
        /// Applies `edit` to a boxed copy of `a`'s tree, interning the
        /// edited tree into `pool` as `a`'s new tree if it applied.
        fn edit_src(
            pool: &mut TreePool,
            a: &mut AssignStmt,
            edit: &mut impl FnMut(&mut Tree) -> bool,
        ) -> bool {
            let mut tree = pool.to_tree(a.src);
            let edited = first_node(&mut tree, edit);
            if edited {
                a.src = pool.intern(&tree);
            }
            edited
        }
        fn edit_tree(lir: &Lir, mut edit: impl FnMut(&mut Tree) -> bool) -> Option<Lir> {
            let mut copy = lir.clone();
            let Lir { body, pool, .. } = &mut copy;
            first_assign(body, &mut |a| edit_src(pool, a, &mut edit)).then_some(copy)
        }
        fn edit_index(lir: &Lir, mut edit: impl FnMut(&mut Index) -> bool) -> Option<Lir> {
            let mut copy = lir.clone();
            let Lir { body, pool, .. } = &mut copy;
            let mut in_ref = |r: &mut MemRef| match r {
                MemRef::Array { index, .. } => edit(index),
                MemRef::Scalar(_) => false,
            };
            first_assign(body, &mut |a| {
                in_ref(&mut a.dst)
                    || edit_src(pool, a, &mut |t| match t {
                        Tree::Mem(r) => in_ref(r),
                        _ => false,
                    })
            })
            .then_some(copy)
        }
        let mut named = lir.clone();
        named.name = Symbol::new(format!("{}_", lir.name));
        let mut declared = lir.clone();
        declared.vars.push(VarInfo {
            name: Symbol::new("extra"),
            len: 1,
            kind: StorageKind::Var,
            bank: None,
            is_fix: true,
        });
        let banked = (!lir.vars.is_empty()).then(|| {
            let mut copy = lir.clone();
            let bank = copy.vars[0].bank;
            copy.vars[0].bank = Some(if bank == Some(Bank::X) { Bank::Y } else { Bank::X });
            copy
        });
        let loop_edit = |f: fn(&mut Symbol, &mut u32)| {
            let mut copy = lir.clone();
            first_loop(&mut copy.body, &mut |v, c| f(v, c)).then_some(copy)
        };
        vec![
            (
                "constant",
                edit_tree(lir, |t| match t {
                    Tree::Const(c) => {
                        *c = c.wrapping_add(1);
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "operator",
                edit_tree(lir, |t| match t {
                    Tree::Bin(op, ..) => {
                        *op = if *op == BinOp::Add { BinOp::Sub } else { BinOp::Add };
                        true
                    }
                    Tree::Un(op, _) => {
                        *op = if *op == UnOp::Neg { UnOp::Abs } else { UnOp::Neg };
                        true
                    }
                    _ => false,
                }),
            ),
            (
                "operand order",
                edit_tree(lir, |t| match t {
                    Tree::Bin(_, a, b) if a != b => {
                        std::mem::swap(a, b);
                        true
                    }
                    _ => false,
                }),
            ),
            ("program name", Some(named)),
            ("declaration", Some(declared)),
            ("bank", banked),
            ("loop count", loop_edit(|_, c| *c += 1)),
            ("loop variable", loop_edit(|v, _| *v = Symbol::new(format!("{v}_")))),
            (
                "index form",
                edit_index(lir, |ix| {
                    *ix = match ix {
                        Index::Const(c) => Index::Var { var: Symbol::new("i"), offset: *c },
                        Index::Var { var, offset } => {
                            Index::RevVar { var: var.clone(), offset: *offset }
                        }
                        Index::RevVar { var, offset } => {
                            Index::Var { var: var.clone(), offset: *offset }
                        }
                    };
                    true
                }),
            ),
        ]
    }

    /// Every single edit of every program of the corpus changes its
    /// canonical bytes, and every kind of edit applies somewhere.
    #[test]
    fn every_single_edit_changes_the_bytes() {
        let mut applied: std::collections::BTreeMap<&str, usize> = Default::default();
        for program in corpus() {
            let bytes = program_bytes(&program);
            for (kind, edited) in edits(&program) {
                let Some(edited) = edited else { continue };
                assert_ne!(edited, program, "{kind} edit left {} unchanged", program.name);
                assert_ne!(program_bytes(&edited), bytes, "{kind} edit of {}", program.name);
                *applied.entry(kind).or_default() += 1;
            }
        }
        assert_eq!(applied.len(), 9, "{applied:?}");
        assert!(applied.values().all(|&n| n >= 10), "{applied:?}");
    }
}
