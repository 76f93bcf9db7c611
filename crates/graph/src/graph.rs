//! The property graph `G = (V, E, L, F_A)` of Section 2.
//!
//! * `V` — a finite set of nodes, here dense ids `0..n` ([`NodeId`]).
//! * `E ⊆ V × Γ × V` — finite set of labelled directed edges; parallel edges
//!   with the *same* label are collapsed (E is a set in the paper).
//! * `L` — a node labelling `V → Γ`.
//! * `F_A` — per-node attribute tuples `(A1 = a1, …, An = an)` of finite
//!   arity; graphs are schemaless, so `v.A` may be absent. The special
//!   attribute `id` is the node identity itself and is *not* stored in the
//!   attribute map (it is the [`NodeId`]).
//!
//! Each edge is stored once per direction, in a **label-partitioned
//! adjacency** per node: one id-sorted neighbour array grouped by edge
//! label plus a sorted `(label, start)` index (CSR-style). That one
//! structure answers everything GED validation asks of `E`: the
//! neighbours under one label ([`Graph::out_edges_labeled`], a sorted
//! slice the matcher uses as its candidate list as is), the neighbours
//! under any label (a walk over the groups, [`Graph::out_edges`]), and
//! edge existence (a binary search in the label's group,
//! [`Graph::has_edge`]). A label index over nodes serves candidate
//! generation for unanchored pattern variables.

use crate::symbol::Symbol;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;

/// A node identifier: dense index into the graph's node table.
///
/// Doubles as the paper's special `id` attribute: `x.id = y.id` holds iff the
/// two matched [`NodeId`]s are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize` for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A directed labelled edge `(src, label, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Edge label from `Γ`.
    pub label: Symbol,
    /// Destination node.
    pub dst: NodeId,
}

#[derive(Debug, Clone)]
struct NodeData {
    label: Symbol,
    attrs: BTreeMap<Symbol, Value>,
}

/// One node's adjacency in one direction, partitioned by edge label:
/// CSR-style, a single neighbour array grouped by label (ids sorted
/// within each group) plus a sorted `(label, start offset)` index. The
/// group of `index[i].0` spans `nbrs[index[i].1 .. index[i+1].1]` (or to
/// the end for the last entry). Since `E` is a set, ids within a group
/// are duplicate-free, so a group is a sorted set — exactly the candidate
/// list shape the matcher wants, with no filter, sort, or dedup.
#[derive(Debug, Clone, Default)]
struct LabeledAdj {
    nbrs: Vec<NodeId>,
    index: Vec<(Symbol, u32)>,
}

impl LabeledAdj {
    /// The `nbrs` range of the group at index entry `i`.
    fn group_range(&self, i: usize) -> Range<usize> {
        let start = self.index[i].1 as usize;
        let end = self
            .index
            .get(i + 1)
            .map_or(self.nbrs.len(), |&(_, o)| o as usize);
        start..end
    }

    /// The `nbrs` range holding label `l`'s group (empty if absent).
    fn range(&self, l: Symbol) -> Range<usize> {
        match self.index.binary_search_by_key(&l, |&(s, _)| s) {
            Ok(i) => self.group_range(i),
            Err(_) => 0..0,
        }
    }

    /// Label `l`'s neighbour group: sorted, duplicate-free.
    fn group(&self, l: Symbol) -> &[NodeId] {
        &self.nbrs[self.range(l)]
    }

    /// Every `(label, neighbour)` pair, label-major and id-sorted within
    /// a label.
    fn iter(&self) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        (0..self.index.len()).flat_map(move |i| {
            let l = self.index[i].0;
            self.nbrs[self.group_range(i)].iter().map(move |&n| (l, n))
        })
    }

    /// Insert neighbour `n` under label `l`, keeping groups label-major
    /// and id-sorted. Returns `false` (and changes nothing) if `(l, n)`
    /// is already present.
    fn insert(&mut self, l: Symbol, n: NodeId) -> bool {
        let (i, pos) = match self.index.binary_search_by_key(&l, |&(s, _)| s) {
            Ok(i) => {
                let Range { start, end } = self.group_range(i);
                match self.nbrs[start..end].binary_search(&n) {
                    Ok(_) => return false,
                    Err(off) => (i, start + off),
                }
            }
            Err(i) => {
                let start = self
                    .index
                    .get(i)
                    .map_or(self.nbrs.len(), |&(_, o)| o as usize);
                self.index.insert(i, (l, start as u32));
                (i, start)
            }
        };
        self.nbrs.insert(pos, n);
        for e in &mut self.index[i + 1..] {
            e.1 += 1;
        }
        true
    }

    /// Remove neighbour `n` from label `l`'s group (no-op if absent);
    /// an emptied group's index entry is dropped so the index enumerates
    /// exactly the labels with neighbours.
    fn remove(&mut self, l: Symbol, n: NodeId) {
        let Ok(i) = self.index.binary_search_by_key(&l, |&(s, _)| s) else {
            return;
        };
        let Range { start, end } = self.group_range(i);
        let Ok(off) = self.nbrs[start..end].binary_search(&n) else {
            return;
        };
        self.nbrs.remove(start + off);
        for e in &mut self.index[i + 1..] {
            e.1 -= 1;
        }
        if end - start == 1 {
            self.index.remove(i);
        }
    }
}

/// A finite directed labelled property graph (Section 2).
///
/// Nodes are identified by dense ids. Removal ([`Graph::remove_node`]) marks
/// the slot dead instead of compacting, so surviving [`NodeId`]s stay stable
/// across arbitrary update sequences — the invariant the incremental
/// validation engine's violation store depends on. Removed ids are never
/// reused; every accessor that enumerates nodes skips dead slots.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<NodeData>,
    alive: Vec<bool>,
    n_live: usize,
    n_edges: usize,
    /// Per node: `(label, dst)` of its out-edges.
    out: Vec<LabeledAdj>,
    /// Per node: `(label, src)` of its in-edges.
    inn: Vec<LabeledAdj>,
    label_index: HashMap<Symbol, Vec<NodeId>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Add a node with `label`, returning its id. Ids are never reused, so
    /// an id freed by [`Graph::remove_node`] stays dead forever.
    pub fn add_node(&mut self, label: Symbol) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label,
            attrs: BTreeMap::new(),
        });
        self.alive.push(true);
        self.n_live += 1;
        self.out.push(LabeledAdj::default());
        self.inn.push(LabeledAdj::default());
        self.label_index.entry(label).or_default().push(id);
        id
    }

    /// Add edge `(src, label, dst)`. Returns `false` if it already existed
    /// (E is a set). Panics if either endpoint is out of range or removed.
    pub fn add_edge(&mut self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        assert!(self.is_alive(src), "edge src out of range or removed");
        assert!(self.is_alive(dst), "edge dst out of range or removed");
        if !self.out[src.idx()].insert(label, dst) {
            return false;
        }
        self.inn[dst.idx()].insert(label, src);
        self.n_edges += 1;
        true
    }

    /// Remove edge `(src, label, dst)`. Returns `false` if it was absent.
    pub fn remove_edge(&mut self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        if !self.has_edge(src, label, dst) {
            return false;
        }
        self.out[src.idx()].remove(label, dst);
        self.inn[dst.idx()].remove(label, src);
        self.n_edges -= 1;
        true
    }

    /// Remove node `n` together with every incident edge and its attribute
    /// tuple. Returns `false` if `n` is out of range or already removed.
    /// The id is tombstoned — surviving ids are unaffected and `n` is never
    /// handed out again by [`Graph::add_node`].
    pub fn remove_node(&mut self, n: NodeId) -> bool {
        if !self.is_alive(n) {
            return false;
        }
        // A self-loop sits in both of `n`'s own lists; it is counted (and
        // needs no mirror update) on the out side only.
        let outs = std::mem::take(&mut self.out[n.idx()]);
        for (label, dst) in outs.iter().filter(|&(_, d)| d != n) {
            self.inn[dst.idx()].remove(label, n);
        }
        self.n_edges -= outs.nbrs.len();
        let inns = std::mem::take(&mut self.inn[n.idx()]);
        for (label, src) in inns.iter().filter(|&(_, s)| s != n) {
            self.out[src.idx()].remove(label, n);
            self.n_edges -= 1;
        }
        let label = self.nodes[n.idx()].label;
        let label_emptied = match self.label_index.get_mut(&label) {
            Some(ix) => {
                ix.retain(|&m| m != n);
                ix.is_empty()
            }
            None => false,
        };
        if label_emptied {
            // Keep `labels()` an exact enumeration of labels with live nodes.
            self.label_index.remove(&label);
        }
        self.nodes[n.idx()].attrs.clear();
        self.alive[n.idx()] = false;
        self.n_live -= 1;
        true
    }

    /// Is `n` a live node of this graph (in range and not removed)?
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.alive.get(n.idx()).copied().unwrap_or(false)
    }

    /// One past the largest id ever allocated (dense iteration bound).
    /// Equals [`Graph::node_count`] only when no node was ever removed.
    pub fn node_id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Has any node ever been removed from this graph?
    pub fn has_removals(&self) -> bool {
        self.n_live != self.nodes.len()
    }

    /// Set attribute `A = v` on node `n` (overwrites). `A` must not be `id`.
    /// Panics if `n` is out of range or removed.
    pub fn set_attr(&mut self, n: NodeId, attr: Symbol, v: impl Into<Value>) {
        assert!(
            attr != Symbol::ID,
            "the id attribute is the node identity and cannot be set"
        );
        assert!(self.is_alive(n), "set_attr on a removed node");
        self.nodes[n.idx()].attrs.insert(attr, v.into());
    }

    /// Remove attribute `A` from node `n`, returning the previous value.
    pub fn remove_attr(&mut self, n: NodeId, attr: Symbol) -> Option<Value> {
        self.nodes[n.idx()].attrs.remove(&attr)
    }

    /// Number of (live) nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.n_live
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// The paper's size measure `|G| = |V| + |E|` (plus attributes), used in
    /// the Theorem 1 chase bounds. We count attributes too, conservatively.
    /// Removed nodes carry no attributes, so the sum skips them naturally.
    pub fn size(&self) -> usize {
        self.n_live + self.n_edges + self.nodes.iter().map(|n| n.attrs.len()).sum::<usize>()
    }

    /// Label `L(n)`.
    pub fn label(&self, n: NodeId) -> Symbol {
        self.nodes[n.idx()].label
    }

    /// Attribute value `n.A`, if present.
    pub fn attr(&self, n: NodeId, attr: Symbol) -> Option<&Value> {
        self.nodes[n.idx()].attrs.get(&attr)
    }

    /// All attributes of `n` (sorted by attribute symbol).
    pub fn attrs(&self, n: NodeId) -> &BTreeMap<Symbol, Value> {
        &self.nodes[n.idx()].attrs
    }

    /// Iterate over all live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(move |n| self.alive[n.idx()])
    }

    /// Iterate over all edges: sources in id order, each source's edges in
    /// `(label, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out.iter().enumerate().flat_map(|(s, outs)| {
            outs.iter().map(move |(label, dst)| Edge {
                src: NodeId(s as u32),
                label,
                dst,
            })
        })
    }

    /// Outgoing `(label, dst)` pairs of `n`, in `(label, dst)` order.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        self.out[n.idx()].iter()
    }

    /// Incoming `(label, src)` pairs of `n`, in `(label, src)` order.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        self.inn[n.idx()].iter()
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out[n.idx()].nbrs.len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.inn[n.idx()].nbrs.len()
    }

    /// The nodes `d` with an edge `(n, label, d)`, for one concrete edge
    /// label. The slice is sorted by id and duplicate-free (E is a set),
    /// so it is directly usable as a matcher candidate list — no
    /// filtering, sorting, or dedup. `label` must not be the wildcard (a
    /// wildcard edge spans *all* groups; use [`Graph::out_edges`]).
    pub fn out_edges_labeled(&self, n: NodeId, label: Symbol) -> &[NodeId] {
        debug_assert!(!label.is_wildcard(), "wildcard spans all label groups");
        self.out[n.idx()].group(label)
    }

    /// The nodes `s` with an edge `(s, label, n)` — the incoming
    /// counterpart of [`Graph::out_edges_labeled`]; sorted, duplicate-free.
    pub fn in_edges_labeled(&self, n: NodeId, label: Symbol) -> &[NodeId] {
        debug_assert!(!label.is_wildcard(), "wildcard spans all label groups");
        self.inn[n.idx()].group(label)
    }

    /// Number of out-edges of `n` with exactly `label` — O(log #labels),
    /// the degree pre-filter's lookup.
    pub fn out_degree_labeled(&self, n: NodeId, label: Symbol) -> usize {
        self.out[n.idx()].range(label).len()
    }

    /// Number of in-edges of `n` with exactly `label`.
    pub fn in_degree_labeled(&self, n: NodeId, label: Symbol) -> usize {
        self.inn[n.idx()].range(label).len()
    }

    /// Exact edge membership test: a binary search in `src`'s `label`
    /// group. `false` for out-of-range or removed endpoints.
    pub fn has_edge(&self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        self.out
            .get(src.idx())
            .is_some_and(|outs| outs.group(label).binary_search(&dst).is_ok())
    }

    /// Edge membership under pattern-label matching `ι ⪯ ι′`: is there an
    /// edge `src → dst` whose label is matched by `pat_label` (which may be
    /// the wildcard)?
    pub fn has_edge_matching(&self, src: NodeId, pat_label: Symbol, dst: NodeId) -> bool {
        if !pat_label.is_wildcard() {
            return self.has_edge(src, pat_label, dst);
        }
        self.out
            .get(src.idx())
            .is_some_and(|outs| outs.nbrs.contains(&dst))
    }

    /// Nodes whose label *equals* `label` exactly.
    pub fn nodes_with_label(&self, label: Symbol) -> &[NodeId] {
        self.label_index
            .get(&label)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Candidate data nodes for a pattern node labelled `pat_label` under the
    /// matching relation `⪯`: every node if `pat_label` is the wildcard,
    /// otherwise exactly the nodes labelled `pat_label`. The concrete-label
    /// case borrows the label-index bucket directly; only the wildcard case
    /// materialises a list.
    pub fn label_candidates(&self, pat_label: Symbol) -> Cow<'_, [NodeId]> {
        if pat_label.is_wildcard() {
            Cow::Owned(self.nodes().collect())
        } else {
            Cow::Borrowed(self.nodes_with_label(pat_label))
        }
    }

    /// `label_candidates(pat_label).len()` without allocating the list —
    /// for selectivity comparisons (e.g. picking the pivot variable with
    /// the fewest candidates) that only need the count.
    pub fn label_candidate_count(&self, pat_label: Symbol) -> usize {
        if pat_label.is_wildcard() {
            self.node_count()
        } else {
            self.nodes_with_label(pat_label).len()
        }
    }

    /// The distinct labels present in the graph.
    pub fn labels(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.label_index.keys().copied()
    }

    /// Build the quotient graph under a partition of the nodes: `class[v]`
    /// gives the class index of node `v`; the new graph has `n_classes`
    /// nodes, labelled and attributed by the supplied tables, with every
    /// edge `(u, ι, v)` rewired to `(class[u], ι, class[v])` (duplicates
    /// collapse since E is a set). This is the engine under the chase's
    /// *coercion* `G_Eq` (Section 4.1).
    pub fn quotient(
        &self,
        class: &[u32],
        n_classes: usize,
        labels: &[Symbol],
        attrs: Vec<BTreeMap<Symbol, Value>>,
    ) -> Graph {
        assert_eq!(class.len(), self.nodes.len(), "partition covers every node");
        assert!(
            !self.has_removals(),
            "quotient is defined on graphs without removed nodes — call Graph::compact() first"
        );
        assert_eq!(labels.len(), n_classes);
        assert_eq!(attrs.len(), n_classes);
        let mut g = Graph::new();
        for (i, &label) in labels.iter().enumerate() {
            let id = g.add_node(label);
            debug_assert_eq!(id.idx(), i);
        }
        for (i, a) in attrs.into_iter().enumerate() {
            g.nodes[i].attrs = a;
        }
        for e in self.edges() {
            g.add_edge(
                NodeId(class[e.src.idx()]),
                e.label,
                NodeId(class[e.dst.idx()]),
            );
        }
        g
    }

    /// Append a disjoint copy of `other`, returning the offset that maps
    /// `other`'s ids into `self` (node `v` of `other` becomes
    /// `NodeId(v.0 + offset)`). Used to build the canonical graph `G_Σ`
    /// (Section 5.1), the disjoint union of all patterns in Σ.
    pub fn append(&mut self, other: &Graph) -> u32 {
        assert!(
            !other.has_removals(),
            "append is defined on graphs without removed nodes — call Graph::compact() first"
        );
        let offset = self.nodes.len() as u32;
        for n in other.nodes() {
            let id = self.add_node(other.label(n));
            self.nodes[id.idx()].attrs = other.attrs(n).clone();
        }
        for e in other.edges() {
            self.add_edge(NodeId(e.src.0 + offset), e.label, NodeId(e.dst.0 + offset));
        }
        offset
    }

    /// Compact away tombstoned id slots: returns a dense copy of the live
    /// graph plus the id translation (`map[old.idx()] == Some(new)` for
    /// surviving nodes, `None` for removed ones). This is the bridge from
    /// an *evolved* graph back to the chase machinery ([`Graph::quotient`],
    /// `EqRel`, coercion), which requires dense ids.
    pub fn compact(&self) -> (Graph, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.node_id_bound()];
        let mut g = Graph::new();
        for n in self.nodes() {
            let id = g.add_node(self.label(n));
            g.nodes[id.idx()].attrs = self.attrs(n).clone();
            map[n.idx()] = Some(id);
        }
        for e in self.edges() {
            g.add_edge(
                map[e.src.idx()].expect("live edge endpoint"),
                e.label,
                map[e.dst.idx()].expect("live edge endpoint"),
            );
        }
        (g, map)
    }

    /// GraphViz DOT rendering (for debugging and the examples).
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "digraph {name} {{");
        for n in self.nodes() {
            let attrs: Vec<String> = self
                .attrs(n)
                .iter()
                .map(|(a, v)| format!("{}={}", a, v))
                .collect();
            let extra = if attrs.is_empty() {
                String::new()
            } else {
                format!("\\n{}", attrs.join(", "))
            };
            let _ = writeln!(
                s,
                "  n{} [label=\"{}: {}{}\"];",
                n.0,
                n,
                self.label(n),
                extra
            );
        }
        for e in self.edges() {
            let _ = writeln!(s, "  n{} -> n{} [label=\"{}\"];", e.src.0, e.dst.0, e.label);
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph({} nodes, {} edges, {} labels)",
            self.node_count(),
            self.edge_count(),
            self.label_index.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn build_small_graph() {
        let mut g = Graph::new();
        let a = g.add_node(sym("person"));
        let b = g.add_node(sym("product"));
        assert!(g.add_edge(a, sym("create"), b));
        assert!(!g.add_edge(a, sym("create"), b), "E is a set");
        g.set_attr(a, sym("name"), "Tony");
        g.set_attr(b, sym("type"), "video game");

        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.label(a), sym("person"));
        assert_eq!(g.attr(a, sym("name")), Some(&Value::from("Tony")));
        assert_eq!(g.attr(a, sym("missing")), None);
        assert!(g.has_edge(a, sym("create"), b));
        assert!(!g.has_edge(b, sym("create"), a));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    #[should_panic(expected = "id attribute")]
    fn cannot_set_id_attribute() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        g.set_attr(a, Symbol::ID, 3);
    }

    #[test]
    fn label_index_and_candidates() {
        let mut g = Graph::new();
        let p1 = g.add_node(sym("person"));
        let p2 = g.add_node(sym("person"));
        let q = g.add_node(sym("product"));
        assert_eq!(g.nodes_with_label(sym("person")), &[p1, p2]);
        assert_eq!(g.nodes_with_label(sym("nothing")), &[] as &[NodeId]);
        assert_eq!(g.label_candidates(Symbol::WILDCARD), vec![p1, p2, q]);
        assert_eq!(g.label_candidates(sym("product")), vec![q]);
        // The allocation-free count agrees with the list, tombstones
        // included.
        for label in [Symbol::WILDCARD, sym("person"), sym("nothing")] {
            assert_eq!(
                g.label_candidate_count(label),
                g.label_candidates(label).len()
            );
        }
        g.remove_node(p1);
        for label in [Symbol::WILDCARD, sym("person")] {
            assert_eq!(
                g.label_candidate_count(label),
                g.label_candidates(label).len()
            );
        }
    }

    #[test]
    fn edge_matching_with_wildcard() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("knows"), b);
        assert!(g.has_edge_matching(a, sym("knows"), b));
        assert!(g.has_edge_matching(a, Symbol::WILDCARD, b));
        assert!(!g.has_edge_matching(b, Symbol::WILDCARD, a));
        assert!(!g.has_edge_matching(a, sym("likes"), b));
    }

    #[test]
    fn quotient_merges_nodes_and_collapses_edges() {
        // a -knows-> b, c -knows-> b; merge a and c.
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("t"));
        g.add_edge(a, sym("knows"), b);
        g.add_edge(c, sym("knows"), b);
        g.set_attr(a, sym("x"), 1);
        g.set_attr(c, sym("y"), 2);

        let class = [0u32, 1, 0]; // a,c -> class 0; b -> class 1
        let mut merged_attrs = BTreeMap::new();
        merged_attrs.insert(sym("x"), Value::from(1));
        merged_attrs.insert(sym("y"), Value::from(2));
        let q = g.quotient(
            &class,
            2,
            &[sym("t"), sym("t")],
            vec![merged_attrs, BTreeMap::new()],
        );
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1, "two parallel edges collapse");
        assert!(q.has_edge(NodeId(0), sym("knows"), NodeId(1)));
        assert_eq!(q.attr(NodeId(0), sym("x")), Some(&Value::from(1)));
        assert_eq!(q.attr(NodeId(0), sym("y")), Some(&Value::from(2)));
    }

    #[test]
    fn quotient_preserves_self_loops_created_by_merge() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        let q = g.quotient(&[0, 0], 1, &[sym("t")], vec![BTreeMap::new()]);
        assert!(
            q.has_edge(NodeId(0), sym("e"), NodeId(0)),
            "merge creates a self loop"
        );
    }

    #[test]
    fn append_builds_disjoint_union() {
        let mut g1 = Graph::new();
        let a = g1.add_node(sym("x"));
        g1.set_attr(a, sym("k"), 7);
        let mut g2 = Graph::new();
        let b = g2.add_node(sym("y"));
        let c = g2.add_node(sym("y"));
        g2.add_edge(b, sym("e"), c);

        let off = g1.append(&g2);
        assert_eq!(off, 1);
        assert_eq!(g1.node_count(), 3);
        assert_eq!(g1.edge_count(), 1);
        assert!(g1.has_edge(NodeId(1), sym("e"), NodeId(2)));
        assert_eq!(g1.attr(NodeId(0), sym("k")), Some(&Value::from(7)));
    }

    #[test]
    fn edges_iterator_is_complete() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        g.add_edge(b, sym("f"), a);
        g.add_edge(a, sym("g"), a);
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by_key(|e| (e.src, e.dst, e.label));
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn size_counts_nodes_edges_attrs() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        g.set_attr(a, sym("p"), 1);
        g.set_attr(a, sym("q"), 2);
        assert_eq!(g.size(), 2 + 1 + 2);
    }

    #[test]
    fn dot_output_mentions_every_node_and_edge() {
        let mut g = Graph::new();
        let a = g.add_node(sym("person"));
        let b = g.add_node(sym("product"));
        g.add_edge(a, sym("create"), b);
        let dot = g.to_dot("g");
        assert!(dot.contains("n0"));
        assert!(dot.contains("n1"));
        assert!(dot.contains("create"));
    }

    #[test]
    fn remove_edge_updates_all_indexes() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        g.add_edge(a, sym("f"), b);
        assert!(g.remove_edge(a, sym("e"), b));
        assert!(!g.remove_edge(a, sym("e"), b), "already gone");
        assert!(!g.has_edge(a, sym("e"), b));
        assert!(g.has_edge(a, sym("f"), b), "other label survives");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    fn remove_node_drops_incident_edges_and_tombstones_id() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("u"));
        g.add_edge(a, sym("e"), b);
        g.add_edge(c, sym("e"), b);
        g.add_edge(b, sym("f"), b); // self loop on the victim
        g.set_attr(b, sym("p"), 1);

        assert!(g.remove_node(b));
        assert!(!g.remove_node(b), "double removal is a no-op");
        assert!(!g.is_alive(b));
        assert!(g.is_alive(a) && g.is_alive(c));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.out_degree(c), 0);
        assert_eq!(g.nodes_with_label(sym("t")), &[a]);
        assert!(!g.nodes().any(|n| n == b), "iteration skips dead nodes");
        assert!(g.attrs(b).is_empty(), "attributes cleared");
        assert_eq!(g.size(), 2, "two live nodes, no edges, no attrs");

        // Ids are never reused: a new node gets a fresh id.
        let d = g.add_node(sym("t"));
        assert_ne!(d, b);
        assert_eq!(g.node_id_bound(), 4);
        assert!(g.has_removals());
    }

    #[test]
    fn removal_keeps_surviving_ids_stable() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("t"));
        g.set_attr(c, sym("p"), 7);
        g.remove_node(b);
        assert_eq!(g.label(a), sym("t"));
        assert_eq!(g.attr(c, sym("p")), Some(&Value::from(7)));
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(g.label_candidates(Symbol::WILDCARD), vec![a, c]);
    }

    #[test]
    fn labels_shrink_when_last_node_of_a_label_dies() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("u"));
        assert_eq!(g.labels().count(), 2);
        g.remove_node(b);
        let labels: Vec<Symbol> = g.labels().collect();
        assert_eq!(labels, vec![sym("t")], "no phantom label for u");
        g.remove_node(a);
        assert_eq!(g.labels().count(), 0);
    }

    #[test]
    fn compact_densifies_and_translates_ids() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("u"));
        g.add_edge(a, sym("e"), c);
        g.set_attr(c, sym("p"), 9);
        g.remove_node(b);

        let (dense, map) = g.compact();
        assert_eq!(dense.node_count(), 2);
        assert!(!dense.has_removals());
        assert_eq!(map[a.idx()], Some(NodeId(0)));
        assert_eq!(map[b.idx()], None);
        assert_eq!(map[c.idx()], Some(NodeId(1)));
        assert!(dense.has_edge(NodeId(0), sym("e"), NodeId(1)));
        assert_eq!(dense.attr(NodeId(1), sym("p")), Some(&Value::from(9)));
    }

    #[test]
    #[should_panic(expected = "compact")]
    fn append_rejects_tombstoned_graphs() {
        let mut other = Graph::new();
        let a = other.add_node(sym("t"));
        other.add_node(sym("t"));
        other.remove_node(a);
        let mut g = Graph::new();
        g.append(&other);
    }

    #[test]
    #[should_panic(expected = "removed")]
    fn edge_to_removed_node_panics() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.remove_node(b);
        g.add_edge(a, sym("e"), b);
    }

    #[test]
    fn labeled_view_tracks_adds_removes_and_tombstones() {
        let mut g = Graph::new();
        let mut m = Model::default();
        let (e, f) = (sym("e"), sym("f"));
        let n: Vec<NodeId> = (0..5).map(|_| m.add_node(&mut g, sym("t"))).collect();
        m.add_edge(&mut g, n[0], e, n[2]);
        m.add_edge(&mut g, n[0], e, n[1]);
        m.add_edge(&mut g, n[0], f, n[1]);
        m.add_edge(&mut g, n[0], e, n[0]); // self loop
        m.add_edge(&mut g, n[3], e, n[0]);
        m.add_edge(&mut g, n[3], e, n[0]); // duplicate: refused
        assert_eq!(g.out_edges_labeled(n[0], e), &[n[0], n[1], n[2]]);
        assert_eq!(g.out_edges_labeled(n[0], f), &[n[1]]);
        assert_eq!(g.in_edges_labeled(n[0], e), &[n[0], n[3]]);
        assert_eq!(g.out_degree_labeled(n[0], e), 3);
        assert_eq!(g.in_degree_labeled(n[1], f), 1);
        assert_eq!(g.out_edges_labeled(n[4], e), &[] as &[NodeId]);
        m.check(&g);

        m.remove_edge(&mut g, n[0], e, n[1]);
        assert_eq!(g.out_edges_labeled(n[0], e), &[n[0], n[2]]);
        m.check(&g);

        // Tombstoning n[0] clears its own groups and every mirror entry.
        m.remove_node(&mut g, n[0]);
        assert_eq!(g.out_edges_labeled(n[3], e), &[] as &[NodeId]);
        assert_eq!(g.in_edges_labeled(n[2], e), &[] as &[NodeId]);
        m.check(&g);

        // Remove-then-re-add under a fresh id keeps the view exact.
        let d = m.add_node(&mut g, sym("t"));
        m.add_edge(&mut g, n[3], e, d);
        m.add_edge(&mut g, d, f, n[3]);
        assert_eq!(g.out_edges_labeled(n[3], e), &[d]);
        assert_eq!(g.in_edges_labeled(n[3], f), &[d]);
        m.check(&g);
    }

    #[test]
    fn labeled_view_survives_compact() {
        let mut g = Graph::new();
        let mut m = Model::default();
        let (e, f) = (sym("e"), sym("f"));
        let n: Vec<NodeId> = (0..4).map(|_| m.add_node(&mut g, sym("t"))).collect();
        m.add_edge(&mut g, n[0], e, n[1]);
        m.add_edge(&mut g, n[0], f, n[2]);
        m.add_edge(&mut g, n[2], e, n[2]);
        m.remove_node(&mut g, n[1]);
        let (dense, map) = g.compact();
        let to = |v: NodeId| map[v.idx()].expect("live node");
        let dense_model = Model {
            alive: m.alive.iter().map(|&v| to(v)).collect(),
            edges: m.edges.iter().map(|&(s, l, d)| (to(s), l, to(d))).collect(),
            labels: m.labels.clone(),
        };
        dense_model.check(&dense);
        let c2 = to(n[2]);
        assert_eq!(dense.out_edges_labeled(to(n[0]), f), &[c2]);
        assert_eq!(dense.out_edges_labeled(c2, e), &[c2], "self loop kept");
        assert_eq!(dense.out_degree_labeled(to(n[3]), e), 0);
    }

    #[test]
    fn remove_attr_roundtrip() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        g.set_attr(a, sym("p"), 5);
        assert_eq!(g.remove_attr(a, sym("p")), Some(Value::from(5)));
        assert_eq!(g.remove_attr(a, sym("p")), None);
    }
}
