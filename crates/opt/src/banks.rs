//! Memory-bank assignment (Sudarsanam/Malik style).
//!
//! "A few DSPs support multiple memory banks. Whenever the arguments of a
//! binary operation are available in two different memory banks, the
//! operation executes faster. Assigning variables to memory banks such
//! that as many operations as possible will find their operands in
//! different banks is an optimization that can be more easily performed
//! by a compiler than by an assembly language programmer." (Section 3.3.)
//!
//! We build a weighted *conflict graph*: an edge between two symbols for
//! every instruction window in which their values are wanted together
//! (same instruction, or adjacent move+arithmetic pairs that parallel
//! packing could merge). Greedy placement in decreasing weight order
//! followed by a local-improvement (flip) pass maximizes the weight of
//! cross-bank edges. Source-level `bank` hints are honoured as fixed.
//!
//! The graph is dense: the layout's symbols are nodes `0..n` in layout
//! order (operand bases the layout does not place follow them), each with
//! an adjacency list and its incident weight, so a flip is decided by its
//! gain over the flipped symbol's own edges.

use std::collections::HashMap;

use record_ir::{Bank, Symbol};
use record_isa::{Code, Insn, InsnKind, Loc, TargetDesc};

use crate::budget::{BudgetExceeded, SearchBudget};

/// Statistics from bank assignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Total pair weight observed.
    pub total_weight: u32,
    /// Pair weight placed in different banks (the maximized objective).
    pub cross_bank_weight: u32,
    /// Number of symbols moved to bank Y.
    pub moved_to_y: u32,
}

/// Assigns banks to unhinted symbols to maximize cross-bank operand
/// pairs; rewrites the layout and the bank attribute of every memory
/// operand. Single-bank targets are returned unchanged.
///
/// `fixed` lists symbols whose bank must not change (source hints).
pub fn assign_banks(
    code: &mut Code,
    target: &TargetDesc,
    fixed: &HashMap<Symbol, Bank>,
) -> BankStats {
    assign_banks_budgeted(code, target, fixed, &SearchBudget::unlimited())
        .expect("unlimited budget never fires")
}

/// [`assign_banks`] under a [`SearchBudget`]: greedy placement charges
/// one step per conflict-graph edge for every symbol it places, and each
/// flip trial of the local-improvement loop two per edge. The charges
/// measure the search by the graph's size, whatever a step costs to
/// evaluate. On exhaustion the code is left **unmodified** (layout and
/// operands are only rewritten once the search completes).
///
/// # Errors
///
/// [`BudgetExceeded`] if the budget runs out mid-search.
pub fn assign_banks_budgeted(
    code: &mut Code,
    target: &TargetDesc,
    fixed: &HashMap<Symbol, Bank>,
    budget: &SearchBudget,
) -> Result<BankStats, BudgetExceeded> {
    let mut stats = BankStats::default();
    if target.memory.banks < 2 {
        return Ok(stats);
    }
    let graph = ConflictGraph::build(code);
    stats.total_weight = graph.edges.iter().map(|e| e.2).sum();
    let edge_steps = graph.edges.len().max(1) as u64;
    let layout = code.layout.entries();

    // every node's bank, hinted ones fixed from the start
    let mut bank: Vec<Option<Bank>> = layout
        .iter()
        .map(|e| &e.sym)
        .chain(graph.unplaced.iter().copied())
        .map(|sym| fixed.get(sym).copied())
        .collect();

    // --- greedy placement, heaviest symbol first ----------------------------
    let mut free: Vec<usize> = (0..layout.len()).filter(|&v| bank[v].is_none()).collect();
    free.sort_by(|&a, &b| {
        graph.incident[b].cmp(&graph.incident[a]).then_with(|| layout[a].sym.cmp(&layout[b].sym))
    });
    for &v in &free {
        budget.charge(edge_steps)?;
        // gain of each bank = weight to already-placed neighbours in the
        // other bank
        let mut gain = [0i64, 0i64];
        for &(u, w) in graph.neighbours(v) {
            if let Some(b) = bank[u] {
                gain[b.other() as usize] += i64::from(w);
            }
        }
        bank[v] =
            Some(if gain[Bank::Y as usize] > gain[Bank::X as usize] { Bank::Y } else { Bank::X });
    }

    // --- local improvement (flip while it helps) ----------------------------
    // Flipping `v` changes the cross-bank weight on `v`'s own edges only:
    // an edge to a neighbour in `v`'s old bank becomes cross-bank (+w),
    // one to a neighbour in the other bank stops being cross-bank (-w),
    // and one to a neighbour without a bank counts as cross-bank either
    // way (0). The sum is the difference of two full recounts.
    let mut improved = true;
    while improved {
        improved = false;
        for &v in &free {
            budget.charge(2 * edge_steps)?;
            let old = bank[v];
            let gain: i64 = graph
                .neighbours(v)
                .iter()
                .map(|&(u, w)| match bank[u] {
                    None => 0,
                    b if b == old => i64::from(w),
                    _ => -i64::from(w),
                })
                .sum();
            if gain > 0 {
                bank[v] = old.map(Bank::other);
                improved = true;
            }
        }
    }
    stats.cross_bank_weight =
        graph.edges.iter().filter(|&&(a, b, _)| bank[a] != bank[b]).map(|e| e.2).sum();

    // --- rewrite layout and operands -----------------------------------------
    let mut next = [0u16, 0u16];
    code.layout.relocate(|v, e| {
        let b = bank[v].unwrap_or(Bank::X);
        let addr = next[b as usize];
        next[b as usize] += e.len as u16;
        (b, addr)
    });
    stats.moved_to_y = code.layout.entries().iter().filter(|e| e.bank == Bank::Y).count() as u32;
    let layout = &code.layout;
    for insn in &mut code.insns {
        insn.for_each_mem_mut(&mut |m| {
            let assigned = match layout.position(&m.base) {
                Some(v) => bank[v],
                None => fixed.get(&m.base).copied(),
            };
            if let Some(b) = assigned {
                m.bank = b;
            }
        });
    }
    Ok(stats)
}

/// The weighted conflict graph over dense symbol ids: the layout's
/// symbols are `0..n` in layout order, the operand bases it does not place
/// follow in order of first appearance.
struct ConflictGraph<'c> {
    /// The symbols of nodes `n..`.
    unplaced: Vec<&'c Symbol>,
    /// Distinct `(a, b, weight)` edges, `a < b`.
    edges: Vec<(usize, usize, u32)>,
    /// Each node's total edge weight.
    incident: Vec<u32>,
    /// Node `v`'s `(neighbour, weight)` pairs are
    /// `adjacency[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    adjacency: Vec<(usize, u32)>,
}

impl<'c> ConflictGraph<'c> {
    /// Weighs every "wanted together" window: the memory bases each
    /// instruction reads, and the distinct bases read by each adjacent
    /// pair of instructions (a move and the arithmetic it could pack
    /// into). An instruction's own window drops only consecutive repeats,
    /// so a base read twice apart weighs its pairs twice.
    fn build(code: &'c Code) -> Self {
        let layout = &code.layout;
        let placed = layout.entries().len();
        let mut unplaced: Vec<&'c Symbol> = Vec::new();
        let mut node = |sym: &'c Symbol| match layout.position(sym) {
            Some(v) => v,
            None => match unplaced.iter().position(|s| *s == sym) {
                Some(k) => placed + k,
                None => {
                    unplaced.push(sym);
                    placed + unplaced.len() - 1
                }
            },
        };
        let mut read_bases = |insn: &'c Insn, out: &mut Vec<usize>| {
            out.clear();
            if let InsnKind::Compute { expr, .. } = &insn.kind {
                expr.for_each_read(&mut |l| {
                    if let Loc::Mem(m) = l {
                        let v = node(&m.base);
                        if out.last() != Some(&v) {
                            out.push(v);
                        }
                    }
                });
            }
        };
        // every weighed pair once per window, as `(a, b, 1)` with `a < b`
        let mut edges: Vec<(usize, usize, u32)> = Vec::new();
        let mut weigh = |window: &[usize]| {
            for (i, &a) in window.iter().enumerate() {
                for &b in &window[i + 1..] {
                    if a != b {
                        edges.push((a.min(b), a.max(b), 1));
                    }
                }
            }
        };
        let (mut own, mut next, mut joint) = (Vec::new(), Vec::new(), Vec::new());
        if let Some(first) = code.insns.first() {
            read_bases(first, &mut own);
        }
        for i in 0..code.insns.len() {
            if own.len() >= 2 {
                weigh(&own);
            }
            if let Some(after) = code.insns.get(i + 1) {
                read_bases(after, &mut next);
                joint.clear();
                joint.extend_from_slice(&own);
                joint.extend_from_slice(&next);
                joint.sort_unstable();
                joint.dedup();
                if joint.len() >= 2 {
                    weigh(&joint);
                }
                std::mem::swap(&mut own, &mut next);
            }
        }
        edges.sort_unstable();
        edges.dedup_by(|e, kept| {
            let same = (e.0, e.1) == (kept.0, kept.1);
            if same {
                kept.2 += e.2;
            }
            same
        });

        let nodes = placed + unplaced.len();
        let mut incident = vec![0u32; nodes];
        let mut start = vec![0usize; nodes + 1];
        for &(a, b, w) in &edges {
            incident[a] += w;
            incident[b] += w;
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        let mut cursor = start[..nodes].to_vec();
        let mut adjacency = vec![(0, 0); 2 * edges.len()];
        for &(a, b, w) in &edges {
            adjacency[cursor[a]] = (b, w);
            cursor[a] += 1;
            adjacency[cursor[b]] = (a, w);
            cursor[b] += 1;
        }
        ConflictGraph { unplaced, edges, incident, start, adjacency }
    }

    fn neighbours(&self, v: usize) -> &[(usize, u32)] {
        &self.adjacency[self.start[v]..self.start[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_isa::{Insn, MemLoc};

    fn mem(name: &str) -> Loc {
        Loc::Mem(MemLoc::scalar(name))
    }

    fn mul(dst: &str, a: &str, b: &str) -> Insn {
        Insn::compute(
            mem(dst),
            record_isa::SemExpr::bin(
                record_ir::BinOp::Mul,
                record_isa::SemExpr::loc(mem(a)),
                record_isa::SemExpr::loc(mem(b)),
            ),
            format!("MUL {dst},{a},{b}"),
            1,
            1,
        )
    }

    fn code_with(insns: Vec<Insn>, syms: &[&str]) -> Code {
        let mut code = Code::default();
        for (addr, s) in syms.iter().enumerate() {
            code.layout.place(Symbol::new(*s), addr as u16, 1, Bank::X);
        }
        code.insns = insns;
        code
    }

    #[test]
    fn single_bank_target_is_untouched() {
        let t = record_isa::targets::tic25::target();
        let mut code = code_with(vec![mul("y", "a", "b")], &["a", "b", "y"]);
        let stats = assign_banks(&mut code, &t, &HashMap::new());
        assert_eq!(stats, BankStats::default());
    }

    #[test]
    fn operand_pairs_split_across_banks() {
        let t = record_isa::targets::dsp56k::target();
        let mut code = code_with(vec![mul("y", "a", "b")], &["a", "b", "y"]);
        let stats = assign_banks(&mut code, &t, &HashMap::new());
        assert!(stats.cross_bank_weight >= 1);
        let a = code.layout.entry(&Symbol::new("a")).unwrap().bank;
        let b = code.layout.entry(&Symbol::new("b")).unwrap().bank;
        assert_ne!(a, b, "multiplication operands should land in different banks");
    }

    #[test]
    fn hints_are_respected() {
        let t = record_isa::targets::dsp56k::target();
        let mut code = code_with(vec![mul("y", "a", "b")], &["a", "b", "y"]);
        let fixed: HashMap<Symbol, Bank> = [(Symbol::new("a"), Bank::Y)].into_iter().collect();
        assign_banks(&mut code, &t, &fixed);
        assert_eq!(code.layout.entry(&Symbol::new("a")).unwrap().bank, Bank::Y);
        assert_eq!(code.layout.entry(&Symbol::new("b")).unwrap().bank, Bank::X);
    }

    #[test]
    fn operand_banks_rewritten_in_code() {
        let t = record_isa::targets::dsp56k::target();
        let mut code = code_with(vec![mul("y", "a", "b")], &["a", "b", "y"]);
        assign_banks(&mut code, &t, &HashMap::new());
        let banks: Vec<Bank> =
            code.insns[0].srcs().iter().filter_map(|l| l.as_mem().map(|m| m.bank)).collect();
        assert_eq!(banks.len(), 2);
        assert_ne!(banks[0], banks[1]);
    }

    #[test]
    fn chain_of_pairs_alternates() {
        // a-b, b-c, c-d pairs: optimal alternation a,c vs b,d
        let t = record_isa::targets::dsp56k::target();
        let insns = vec![mul("t1", "a", "b"), mul("t2", "b", "c"), mul("t3", "c", "d")];
        let mut code = code_with(insns, &["a", "b", "c", "d", "t1", "t2", "t3"]);
        let stats = assign_banks(&mut code, &t, &HashMap::new());
        let bank = |s: &str| code.layout.entry(&Symbol::new(s)).unwrap().bank;
        assert_ne!(bank("a"), bank("b"));
        assert_ne!(bank("b"), bank("c"));
        assert_ne!(bank("c"), bank("d"));
        assert!(stats.cross_bank_weight >= 3);
    }

    #[test]
    fn addresses_repacked_per_bank() {
        let t = record_isa::targets::dsp56k::target();
        let mut code = code_with(vec![mul("y", "a", "b")], &["a", "b", "y"]);
        assign_banks(&mut code, &t, &HashMap::new());
        // addresses must start at 0 in each bank and not collide
        let mut seen: HashMap<(Bank, u16), &Symbol> = HashMap::new();
        for e in code.layout.entries() {
            assert!(seen.insert((e.bank, e.addr), &e.sym).is_none());
        }
    }
}
