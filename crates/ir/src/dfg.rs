//! The value-numbered data-flow graph that tree decomposition used
//! before it worked on the tree pool, kept as the reference
//! [`treeify`](crate::treeify::treeify) is compared against.
//!
//! It works on boxed assignments, `(destination, tree)` pairs.
//!
//! A [`Dfg`] is built from a sequence of assignments with hash-consing
//! (value numbering), so a subexpression that occurs several times becomes
//! a single node with several uses. Stores create new *versions* of the
//! affected memory locations, so loads are only shared when no intervening
//! store may alias them.

use std::collections::HashMap;
use std::fmt;

use crate::{BinOp, MemRef, Symbol, Tree, UnOp};

/// One boxed assignment: `dst := src`.
pub(crate) type BoxedAssign = (MemRef, Tree);

/// Identifies a node inside its [`Dfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// The index into the graph's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The operation performed by a node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// Integer literal.
    Const(i64),
    /// Memory load. The `u32` is the memory version at the time of the
    /// load (used only for value numbering; it never reaches the back end).
    Load(MemRef, u32),
    /// Reference to a temporary defined outside this block.
    Temp(Symbol),
    /// Binary operation.
    Bin(BinOp),
    /// Unary operation.
    Un(UnOp),
}

/// A node: operation plus ordered operand links.
#[derive(Clone, Debug)]
pub struct Node {
    /// The operation.
    pub kind: NodeKind,
    /// Operand node ids (empty for leaves).
    pub args: Vec<NodeId>,
    /// Number of uses by other nodes or by stores.
    pub uses: u32,
}

/// A store: the root of a data-flow computation.
#[derive(Clone, Debug)]
pub struct Store {
    /// Destination location.
    pub dst: MemRef,
    /// The stored value.
    pub value: NodeId,
}

/// A data-flow graph for one straight-line block.
#[derive(Clone, Debug, Default)]
pub struct Dfg {
    nodes: Vec<Node>,
    stores: Vec<Store>,
}

impl Dfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Dfg::default()
    }

    /// Builds a graph from a straight-line sequence of assignments.
    ///
    /// Identical subexpressions are shared (value numbering) as long as no
    /// intervening store may alias the memory they read.
    pub fn from_assigns(assigns: &[BoxedAssign]) -> Self {
        let mut b =
            Builder { dfg: Dfg::new(), value_numbers: HashMap::new(), mem_version: HashMap::new() };
        for (dst, src) in assigns {
            let value = b.build(src);
            b.dfg.nodes[value.index()].uses += 1;
            b.dfg.stores.push(Store { dst: dst.clone(), value });
            b.invalidate(dst);
        }
        b.dfg
    }

    /// The stores (roots) of the graph, in program order.
    pub fn stores(&self) -> &[Store] {
        &self.stores
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over `(id, node)` pairs in creation (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The ids of *computed* nodes used more than once — the points where
    /// tree decomposition must cut the graph. Shared leaves (loads,
    /// constants, temps) are not cut points: re-reading a memory word or
    /// re-materializing a constant costs nothing extra on a memory-operand
    /// machine, while routing it through a temporary would add a store and
    /// a load.
    pub fn shared_nodes(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.uses > 1 && matches!(n.kind, NodeKind::Bin(_) | NodeKind::Un(_)))
            .map(|(id, _)| id)
            .collect()
    }

    /// Renders the graph in a readable one-node-per-line format, useful in
    /// tests and examples.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (id, n) in self.iter() {
            let args: Vec<String> = n.args.iter().map(|a| a.to_string()).collect();
            let kind = match &n.kind {
                NodeKind::Const(c) => format!("#{c}"),
                NodeKind::Load(m, _) => format!("ref {m}"),
                NodeKind::Temp(s) => format!("tmp {s}"),
                NodeKind::Bin(op) => op.to_string(),
                NodeKind::Un(op) => op.to_string(),
            };
            out.push_str(&format!("{id}: {kind} [{}] uses={}\n", args.join(", "), n.uses));
        }
        for s in &self.stores {
            out.push_str(&format!("store {} := {}\n", s.dst, s.value));
        }
        out
    }
}

struct Builder {
    dfg: Dfg,
    value_numbers: HashMap<(NodeKind, Vec<NodeId>), NodeId>,
    mem_version: HashMap<Symbol, u32>,
}

impl Builder {
    fn build(&mut self, tree: &Tree) -> NodeId {
        match tree {
            Tree::Const(c) => self.intern(NodeKind::Const(*c), vec![]),
            Tree::Mem(r) => {
                let version = *self.mem_version.get(r.base()).unwrap_or(&0);
                self.intern(NodeKind::Load(r.clone(), version), vec![])
            }
            Tree::Temp(s) => self.intern(NodeKind::Temp(s.clone()), vec![]),
            Tree::Bin(op, a, b) => {
                let ia = self.build(a);
                let ib = self.build(b);
                self.intern(NodeKind::Bin(*op), vec![ia, ib])
            }
            Tree::Un(op, a) => {
                let ia = self.build(a);
                self.intern(NodeKind::Un(*op), vec![ia])
            }
        }
    }

    fn intern(&mut self, kind: NodeKind, args: Vec<NodeId>) -> NodeId {
        let key = (kind.clone(), args.clone());
        if let Some(id) = self.value_numbers.get(&key) {
            return *id;
        }
        for a in &args {
            self.dfg.nodes[a.index()].uses += 1;
        }
        let id = NodeId(self.dfg.nodes.len() as u32);
        self.dfg.nodes.push(Node { kind, args, uses: 0 });
        self.value_numbers.insert(key, id);
        id
    }

    /// A store to `dst` bumps the version of its base variable, preventing
    /// later loads that may alias from unifying with earlier ones.
    fn invalidate(&mut self, dst: &MemRef) {
        *self.mem_version.entry(dst.base().clone()).or_insert(0) += 1;
    }
}

/// The decomposition of a block of boxed assignments.
#[derive(Debug, Default)]
pub(crate) struct Forest {
    /// Assignments, in an order that defines every temporary before use.
    pub assigns: Vec<BoxedAssign>,
    /// Temporaries created by the decomposition.
    pub temps: Vec<Symbol>,
}

/// The decomposition [`treeify`](crate::treeify::treeify) makes, over a
/// [`Dfg`]: every computed node with more than one use becomes a
/// temporary, numbered in node creation order and defined immediately
/// before its first user store.
pub(crate) fn treeify(assigns: &[BoxedAssign], mut next_temp: usize) -> (Forest, usize) {
    let dfg = Dfg::from_assigns(assigns);
    let mut forest = Forest::default();
    let mut temp_of: HashMap<NodeId, Symbol> = HashMap::new();
    for id in dfg.shared_nodes() {
        let name = Symbol::temp(next_temp);
        next_temp += 1;
        forest.temps.push(name.clone());
        temp_of.insert(id, name);
    }
    let mut emitted = std::collections::HashSet::new();
    for store in dfg.stores() {
        emit_needed_temps(&dfg, store.value, &temp_of, &mut emitted, &mut forest);
        let tree = build_tree(&dfg, store.value, &temp_of, false);
        forest.assigns.push((store.dst.clone(), tree));
    }
    (forest, next_temp)
}

/// Emits (recursively, in dependency order) the definitions of any
/// not-yet-emitted temps the subtree rooted at `id` uses.
fn emit_needed_temps(
    dfg: &Dfg,
    id: NodeId,
    temp_of: &HashMap<NodeId, Symbol>,
    emitted: &mut std::collections::HashSet<NodeId>,
    forest: &mut Forest,
) {
    // visit operands first so inner temps are defined before outer ones
    for arg in &dfg.node(id).args {
        emit_needed_temps(dfg, *arg, temp_of, emitted, forest);
    }
    if temp_of.contains_key(&id) && emitted.insert(id) {
        let tree = build_tree(dfg, id, temp_of, true);
        forest.assigns.push((MemRef::Scalar(temp_of[&id].clone()), tree));
    }
}

fn build_tree(dfg: &Dfg, id: NodeId, temp_of: &HashMap<NodeId, Symbol>, as_def: bool) -> Tree {
    if !as_def {
        if let Some(t) = temp_of.get(&id) {
            return Tree::Temp(t.clone());
        }
    }
    let node = dfg.node(id);
    match &node.kind {
        NodeKind::Const(c) => Tree::Const(*c),
        NodeKind::Load(m, _) => Tree::Mem(m.clone()),
        NodeKind::Temp(s) => Tree::Temp(s.clone()),
        NodeKind::Bin(op) => {
            let a = build_tree(dfg, node.args[0], temp_of, false);
            let b = build_tree(dfg, node.args[1], temp_of, false);
            Tree::bin(*op, a, b)
        }
        NodeKind::Un(op) => Tree::un(*op, build_tree(dfg, node.args[0], temp_of, false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Index;

    fn assign(dst: &str, src: Tree) -> BoxedAssign {
        (MemRef::scalar(dst), src)
    }

    #[test]
    fn shares_common_subexpressions() {
        let ab = Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b"));
        let assigns = vec![assign("y", Tree::bin(BinOp::Add, ab.clone(), ab.clone()))];
        let dfg = Dfg::from_assigns(&assigns);
        // a, b, a*b, (a*b)+(a*b) = 4 nodes
        assert_eq!(dfg.len(), 4);
        assert_eq!(dfg.shared_nodes().len(), 1);
    }

    #[test]
    fn stores_invalidate_aliasing_loads() {
        // y := a; a := 1; z := a  -- the two loads of `a` must not merge
        let assigns = vec![
            assign("y", Tree::var("a")),
            assign("a", Tree::constant(1)),
            assign("z", Tree::var("a")),
        ];
        let dfg = Dfg::from_assigns(&assigns);
        let loads = dfg.iter().filter(|(_, n)| matches!(n.kind, NodeKind::Load(..))).count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn distinct_arrays_do_not_invalidate_each_other() {
        let assigns = vec![
            assign("y", Tree::elem("a", Index::Const(0))),
            (MemRef::array("b", Index::Const(0)), Tree::constant(1)),
            assign("z", Tree::elem("a", Index::Const(0))),
        ];
        let dfg = Dfg::from_assigns(&assigns);
        let loads = dfg.iter().filter(|(_, n)| matches!(n.kind, NodeKind::Load(..))).count();
        assert_eq!(loads, 1, "load of a[0] should be shared:\n{}", dfg.dump());
    }

    #[test]
    fn store_roots_recorded_in_order() {
        let assigns = vec![assign("y", Tree::constant(1)), assign("z", Tree::constant(2))];
        let dfg = Dfg::from_assigns(&assigns);
        assert_eq!(dfg.stores().len(), 2);
        assert_eq!(dfg.stores()[0].dst.to_string(), "y");
        assert_eq!(dfg.stores()[1].dst.to_string(), "z");
    }

    #[test]
    fn dump_is_readable() {
        let assigns = vec![assign("y", Tree::bin(BinOp::Add, Tree::var("a"), Tree::constant(9)))];
        let text = Dfg::from_assigns(&assigns).dump();
        assert!(text.contains("ref a"));
        assert!(text.contains("#9"));
        assert!(text.contains("store y"));
    }

    #[test]
    fn constants_are_not_cut_points() {
        let five = Tree::constant(5);
        let assigns = vec![assign("y", Tree::bin(BinOp::Add, five.clone(), five.clone()))];
        let dfg = Dfg::from_assigns(&assigns);
        // the constant is shared but is not a candidate for temping
        assert!(dfg.shared_nodes().is_empty());
    }
}
