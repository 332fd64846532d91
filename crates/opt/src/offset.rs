//! Simple offset assignment (SOA).
//!
//! On processors with address-generation units, "incrementing an address
//! register does not require an extra instruction or cycle. As a result,
//! it is desirable to assign variables to memory such that as many
//! variable accesses as possible refer to adjacent memory locations"
//! (Section 3.3). [`soa_order`] implements Liao's classic heuristic:
//! build the *access graph* (edge weight = number of adjacent access
//! pairs), then greedily select maximum-weight edges that keep the chosen
//! set a collection of simple paths; concatenating the paths gives the
//! storage order. [`soa_cost`] evaluates an order: every adjacent access
//! pair not reachable by a free post-modify costs one explicit
//! address-register operation.

use std::collections::HashMap;

use record_ir::Symbol;

use crate::budget::{BudgetExceeded, SearchBudget};

/// Computes a storage order for the accessed scalars using Liao's
/// maximum-weight path-cover heuristic.
///
/// Symbols never accessed adjacently still appear (in first-access
/// order), so the result is a permutation of the distinct symbols in
/// `accesses`.
///
/// # Example
///
/// ```
/// use record_ir::Symbol;
/// use record_opt::{soa_cost, soa_order};
///
/// let s = |n: &str| Symbol::new(n);
/// // access sequence a b a b c a — a and b should be neighbours
/// let acc = vec![s("a"), s("b"), s("a"), s("b"), s("c"), s("a")];
/// let order = soa_order(&acc);
/// let pos = |x: &str| order.iter().position(|o| o.as_str() == x).unwrap();
/// assert_eq!((pos("a") as i64 - pos("b") as i64).abs(), 1);
/// // the optimized order never costs more than declaration order
/// let decl = vec![s("a"), s("b"), s("c")];
/// assert!(soa_cost(&order, &acc, 1) <= soa_cost(&decl, &acc, 1));
/// ```
pub fn soa_order(accesses: &[Symbol]) -> Vec<Symbol> {
    soa_order_budgeted(accesses, &SearchBudget::unlimited()).expect("unlimited budget never fires")
}

/// [`soa_order`] under a [`SearchBudget`]: charges one step per access
/// and per access-graph edge examined during the path cover.
///
/// # Errors
///
/// [`BudgetExceeded`] if the budget runs out mid-search.
pub fn soa_order_budgeted(
    accesses: &[Symbol],
    budget: &SearchBudget,
) -> Result<Vec<Symbol>, BudgetExceeded> {
    let mut symbols: Vec<&Symbol> = Vec::new();
    let mut index: HashMap<&Symbol, u32> = HashMap::new();
    let ids: Vec<u32> = accesses
        .iter()
        .map(|a| {
            *index.entry(a).or_insert_with(|| {
                symbols.push(a);
                symbols.len() as u32 - 1
            })
        })
        .collect();
    let order = soa_order_ids(&ids, symbols.len(), budget)?;
    Ok(order.into_iter().map(|id| symbols[id as usize].clone()).collect())
}

/// [`soa_order_budgeted`] over dense ids instead of symbols: `accesses`
/// holds ids below `bound` (say, variable indices), and the result orders
/// the distinct ids accessed exactly as [`soa_order_budgeted`] orders the
/// symbols they stand for, charging the same steps.
///
/// # Errors
///
/// [`BudgetExceeded`] if the budget runs out mid-search.
///
/// # Panics
///
/// Panics if an access is not below `bound`.
pub fn soa_order_ids(
    accesses: &[u32],
    bound: usize,
    budget: &SearchBudget,
) -> Result<Vec<u32>, BudgetExceeded> {
    // nodes are numbered in first-access order; ties break on that order
    const UNSEEN: u32 = u32::MAX;
    let mut node_of = vec![UNSEEN; bound];
    let mut first_seen: Vec<u32> = Vec::new();
    for &a in accesses {
        if node_of[a as usize] == UNSEEN {
            node_of[a as usize] = first_seen.len() as u32;
            first_seen.push(a);
        }
    }
    let n = first_seen.len();
    if n <= 2 {
        return Ok(first_seen);
    }
    budget.charge(accesses.len() as u64)?;

    // access graph: one `((u, v), weight)` edge, u < v, per adjacent pair
    let mut edges: Vec<((u32, u32), u32)> = accesses
        .windows(2)
        .map(|pair| (node_of[pair[0] as usize], node_of[pair[1] as usize]))
        .filter(|(u, v)| u != v)
        .map(|(u, v)| ((u.min(v), u.max(v)), 1))
        .collect();
    edges.sort_unstable();
    edges.dedup_by(|e, kept| {
        let same = e.0 == kept.0;
        if same {
            kept.1 += e.1;
        }
        same
    });

    // greedy max-weight path cover
    edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut degree = vec![0u8; n];
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let p = parent[x as usize];
        if p != x {
            let r = find(parent, p);
            parent[x as usize] = r;
        }
        parent[x as usize]
    }
    // a path node has at most two neighbours
    let mut adj = vec![[0u32; 2]; n];
    for ((u, v), _) in edges {
        budget.charge(1)?;
        let (ui, vi) = (u as usize, v as usize);
        if degree[ui] >= 2 || degree[vi] >= 2 {
            continue;
        }
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru == rv {
            continue; // would close a cycle
        }
        parent[ru as usize] = rv;
        adj[ui][degree[ui] as usize] = v;
        adj[vi][degree[vi] as usize] = u;
        degree[ui] += 1;
        degree[vi] += 1;
    }

    // walk each path from an endpoint; then isolated nodes
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] || degree[start] > 1 {
            continue;
        }
        // endpoint (degree 0 or 1)
        let mut cur = start;
        let mut prev = usize::MAX;
        loop {
            visited[cur] = true;
            order.push(first_seen[cur]);
            let next = adj[cur][..degree[cur] as usize]
                .iter()
                .map(|&x| x as usize)
                .find(|&x| x != prev && !visited[x]);
            match next {
                Some(nx) => {
                    prev = cur;
                    cur = nx;
                }
                None => break,
            }
        }
    }
    // safety: anything missed (cycles cannot occur, but be robust)
    for i in 0..n {
        if !visited[i] {
            order.push(first_seen[i]);
        }
    }
    Ok(order)
}

/// The number of explicit address-register operations a single AGU
/// pointer needs to serve `accesses` when scalars are stored in `order`:
/// each step between consecutive accesses whose address distance exceeds
/// `post_range` costs 1.
///
/// Symbols in `accesses` that are missing from `order` are ignored.
pub fn soa_cost(order: &[Symbol], accesses: &[Symbol], post_range: i8) -> u32 {
    let pos: HashMap<&Symbol, i64> = order.iter().enumerate().map(|(i, s)| (s, i as i64)).collect();
    let addrs: Vec<i64> = accesses.iter().filter_map(|a| pos.get(a).copied()).collect();
    let mut cost = 0;
    for w in addrs.windows(2) {
        if (w[1] - w[0]).abs() > post_range as i64 {
            cost += 1;
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: &str) -> Symbol {
        Symbol::new(n)
    }

    fn seq(names: &str) -> Vec<Symbol> {
        names.split_whitespace().map(Symbol::new).collect()
    }

    #[test]
    fn empty_and_trivial() {
        assert!(soa_order(&[]).is_empty());
        assert_eq!(soa_order(&[s("a")]), vec![s("a")]);
        assert_eq!(soa_order(&seq("a b")).len(), 2);
    }

    #[test]
    fn order_is_a_permutation() {
        let acc = seq("a b c d a c b d a");
        let order = soa_order(&acc);
        let mut sorted: Vec<String> = order.iter().map(|x| x.to_string()).collect();
        sorted.sort();
        assert_eq!(sorted, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn liao_example_improves_over_declaration_order() {
        // classic SOA example: sequence favouring a-b and c-d adjacency
        let acc = seq("a b a b c d c d a b");
        let order = soa_order(&acc);
        let decl = seq("a c b d");
        assert!(soa_cost(&order, &acc, 1) < soa_cost(&decl, &acc, 1));
        // the a-b-c-d chain leaves only the d..a wrap as a costly hop
        assert_eq!(soa_cost(&order, &acc, 1), 1);
    }

    #[test]
    fn heavy_edge_wins() {
        // x-y adjacent 3 times, x-z once: x must neighbour y
        let acc = seq("x y x y x y x z");
        let order = soa_order(&acc);
        let pos = |n: &str| order.iter().position(|o| o.as_str() == n).unwrap() as i64;
        assert_eq!((pos("x") - pos("y")).abs(), 1);
    }

    #[test]
    fn cost_respects_post_range() {
        let order = seq("a b c");
        let acc = seq("a c a c");
        assert_eq!(soa_cost(&order, &acc, 1), 3); // distance 2 each step
        assert_eq!(soa_cost(&order, &acc, 2), 0); // range-2 AGU covers it
    }

    #[test]
    fn repeated_same_symbol_costs_nothing() {
        let order = seq("a b");
        let acc = seq("a a a");
        assert_eq!(soa_cost(&order, &acc, 0), 0);
    }
}
