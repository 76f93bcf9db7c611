//! # ged-graph — property-graph substrate
//!
//! The data model of *Dependencies for Graphs* (Fan & Lu, PODS 2017),
//! Section 2: finite directed graphs with labelled nodes and edges, where
//! each node carries a schemaless attribute tuple and a special `id`
//! attribute denoting node identity.
//!
//! This crate provides:
//! * [`Value`] — the constant universe `U` (totally ordered for GDCs);
//! * [`Symbol`] — interned labels `Γ` / attribute names `Υ`, with the
//!   wildcard `_` and the asymmetric label-matching relation `ι ⪯ ι′`;
//! * [`Graph`] / [`NodeId`] / [`Edge`] — the graph `(V, E, L, F_A)` with the
//!   adjacency and label indexes the matcher and chase need, plus the
//!   quotient construction that powers chase *coercion*; nodes and edges
//!   can be removed again (tombstoned ids), so graphs can *evolve*;
//! * [`Delta`] / [`DeltaSet`] — elementary updates and batches of them,
//!   applied via [`Graph::apply_delta`], feeding the incremental
//!   validation engine in `ged-engine`;
//! * [`GraphBuilder`] — name-based construction for fixtures;
//! * [`io`] — a text format and a compact binary snapshot format.
//!
//! Everything higher-level (patterns, dependencies, the chase) lives in
//! `ged-pattern` / `ged-core`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod delta;
pub mod graph;
pub mod io;
pub mod symbol;
pub mod value;

pub use builder::GraphBuilder;
pub use delta::{Delta, DeltaEffect, DeltaSet};
pub use graph::{Edge, Graph, NodeId};
pub use symbol::Symbol;
pub use value::Value;

/// Convenience: intern a label/attribute name.
pub fn sym(name: &str) -> Symbol {
    Symbol::new(name)
}

#[cfg(test)]
/// Reference model for [`Graph`]'s node and edge sets: `V` as the set of
/// live ids, `E` as a plain `BTreeSet` of `(src, label, dst)` triples.
/// Tests drive a graph and the model through the same operations, then
/// compare every adjacency accessor against the model with
/// [`Model::check`](model::Model::check).
pub(crate) mod model {
    use crate::{Graph, NodeId, Symbol};
    use std::collections::BTreeSet;

    #[derive(Debug, Default)]
    pub(crate) struct Model {
        pub(crate) alive: BTreeSet<NodeId>,
        pub(crate) edges: BTreeSet<(NodeId, Symbol, NodeId)>,
        /// Every edge label ever added, so emptied groups are checked too.
        pub(crate) labels: BTreeSet<Symbol>,
    }

    impl Model {
        pub(crate) fn add_node(&mut self, g: &mut Graph, label: Symbol) -> NodeId {
            let n = g.add_node(label);
            assert!(self.alive.insert(n), "add_node reused id {n}");
            n
        }

        pub(crate) fn add_edge(&mut self, g: &mut Graph, s: NodeId, l: Symbol, d: NodeId) {
            self.labels.insert(l);
            let fresh = self.edges.insert((s, l, d));
            assert_eq!(g.add_edge(s, l, d), fresh, "add_edge({s}, {l}, {d})");
        }

        pub(crate) fn remove_edge(&mut self, g: &mut Graph, s: NodeId, l: Symbol, d: NodeId) {
            let present = self.edges.remove(&(s, l, d));
            assert_eq!(
                g.remove_edge(s, l, d),
                present,
                "remove_edge({s}, {l}, {d})"
            );
        }

        pub(crate) fn remove_node(&mut self, g: &mut Graph, n: NodeId) {
            let live = self.alive.remove(&n);
            assert_eq!(g.remove_node(n), live, "remove_node({n})");
            self.edges.retain(|&(s, _, d)| s != n && d != n);
        }

        /// Assert that `g` has exactly the model's nodes and edges, through
        /// every accessor: `edges()`, `edge_count`, `has_edge` and wildcard
        /// `has_edge_matching` on every id pair (dead ids included), the
        /// wildcard walks `out_edges`/`in_edges`, the degrees, and every
        /// per-label group. A group equal to the model's is sorted and
        /// duplicate-free, since the model lists it from an ordered set.
        pub(crate) fn check(&self, g: &Graph) {
            assert_eq!(g.nodes().collect::<BTreeSet<_>>(), self.alive, "live nodes");
            let listed: Vec<_> = g.edges().map(|e| (e.src, e.label, e.dst)).collect();
            assert_eq!(
                listed.len(),
                self.edges.len(),
                "edges() yields each edge once"
            );
            assert_eq!(
                listed.into_iter().collect::<BTreeSet<_>>(),
                self.edges,
                "edges()"
            );
            assert_eq!(g.edge_count(), self.edges.len(), "edge_count");
            let ids: Vec<NodeId> = (0..g.node_id_bound() as u32).map(NodeId).collect();
            for &s in &ids {
                for &d in &ids {
                    let mut any = false;
                    for &l in &self.labels {
                        let expect = self.edges.contains(&(s, l, d));
                        assert_eq!(g.has_edge(s, l, d), expect, "has_edge({s}, {l}, {d})");
                        any |= expect;
                    }
                    assert_eq!(
                        g.has_edge_matching(s, Symbol::WILDCARD, d),
                        any,
                        "has_edge_matching({s}, _, {d})"
                    );
                }
            }
            for &n in &self.alive {
                let outs: Vec<(Symbol, NodeId)> = self
                    .edges
                    .iter()
                    .filter(|e| e.0 == n)
                    .map(|&(_, l, d)| (l, d))
                    .collect();
                let mut ins: Vec<(Symbol, NodeId)> = self
                    .edges
                    .iter()
                    .filter(|e| e.2 == n)
                    .map(|&(s, l, _)| (l, s))
                    .collect();
                ins.sort_unstable();
                assert_eq!(g.out_edges(n).collect::<Vec<_>>(), outs, "out_edges({n})");
                assert_eq!(g.in_edges(n).collect::<Vec<_>>(), ins, "in_edges({n})");
                assert_eq!(g.out_degree(n), outs.len(), "out_degree({n})");
                assert_eq!(g.in_degree(n), ins.len(), "in_degree({n})");
                for &l in &self.labels {
                    let group = |pairs: &[(Symbol, NodeId)]| -> Vec<NodeId> {
                        pairs.iter().filter(|p| p.0 == l).map(|p| p.1).collect()
                    };
                    let (out_group, in_group) = (group(&outs), group(&ins));
                    assert_eq!(g.out_edges_labeled(n, l), out_group, "out group {n} {l}");
                    assert_eq!(g.in_edges_labeled(n, l), in_group, "in group {n} {l}");
                    assert_eq!(g.out_degree_labeled(n, l), out_group.len());
                    assert_eq!(g.in_degree_labeled(n, l), in_group.len());
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Strategy: a small random graph over a fixed label alphabet.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        let labels = ["a", "b", "c"];
        let elabels = ["e", "f"];
        (1usize..12).prop_flat_map(move |n| {
            let node_labels = proptest::collection::vec(0usize..labels.len(), n);
            let edges = proptest::collection::vec((0..n, 0usize..elabels.len(), 0..n), 0..(n * 2));
            (node_labels, edges).prop_map(move |(nl, es)| {
                let mut g = Graph::new();
                for &li in &nl {
                    g.add_node(sym(labels[li]));
                }
                for (s, li, d) in es {
                    g.add_edge(NodeId(s as u32), sym(elabels[li]), NodeId(d as u32));
                }
                g
            })
        })
    }

    /// Strategy: a random mutation script. Each step is `(op, a, label,
    /// b)`, with `a`/`b` reduced modulo the id bound at replay time, so
    /// steps hit dead ids, self-loops and earlier edges often.
    fn arb_ops() -> impl Strategy<Value = Vec<(usize, usize, usize, usize)>> {
        proptest::collection::vec((0usize..6, 0usize..16, 0usize..2, 0usize..16), 0..60)
    }

    proptest! {
        /// The label-partitioned adjacency agrees with a `BTreeSet` model
        /// after every step of a random add/remove sequence, including
        /// self-loops, removals of absent edges and dead nodes, and
        /// remove-then-re-add of the same edge.
        #[test]
        fn graph_agrees_with_triple_set_model(ops in arb_ops()) {
            let elabels = [sym("e"), sym("f")];
            let mut g = Graph::new();
            let mut m = model::Model::default();
            for _ in 0..3 {
                m.add_node(&mut g, sym("a"));
            }
            for (op, a, l, b) in ops {
                let bound = g.node_id_bound();
                let (a, b, l) = (NodeId((a % bound) as u32), NodeId((b % bound) as u32), elabels[l]);
                let live = |n: NodeId| m.alive.contains(&n);
                match op {
                    0 => {
                        m.add_node(&mut g, sym("a"));
                    }
                    1 if live(a) && live(b) => m.add_edge(&mut g, a, l, b),
                    2 if live(a) => m.add_edge(&mut g, a, l, a),
                    3 => m.remove_edge(&mut g, a, l, b),
                    4 if !m.edges.is_empty() => {
                        let e = *m.edges.iter().nth(a.idx() % m.edges.len()).unwrap();
                        m.remove_edge(&mut g, e.0, e.1, e.2);
                        m.add_edge(&mut g, e.0, e.1, e.2);
                    }
                    5 => m.remove_node(&mut g, a),
                    _ => {}
                }
                m.check(&g);
            }
        }

        #[test]
        fn binary_roundtrip_preserves_graph(g in arb_graph()) {
            let g2 = io::decode(io::encode(&g)).unwrap();
            prop_assert_eq!(g.node_count(), g2.node_count());
            prop_assert_eq!(g.edge_count(), g2.edge_count());
            for n in g.nodes() {
                prop_assert_eq!(g.label(n), g2.label(n));
            }
            let e1: std::collections::HashSet<_> = g.edges().collect();
            let e2: std::collections::HashSet<_> = g2.edges().collect();
            prop_assert_eq!(e1, e2);
        }

        #[test]
        fn text_roundtrip_preserves_graph(g in arb_graph()) {
            let g2 = io::parse_text(&io::to_text(&g)).unwrap();
            prop_assert_eq!(g.node_count(), g2.node_count());
            prop_assert_eq!(g.edge_count(), g2.edge_count());
        }

        #[test]
        fn quotient_identity_partition_is_isomorphic(g in arb_graph()) {
            let n = g.node_count();
            let class: Vec<u32> = (0..n as u32).collect();
            let labels: Vec<Symbol> = g.nodes().map(|v| g.label(v)).collect();
            let attrs: Vec<BTreeMap<Symbol, Value>> =
                g.nodes().map(|v| g.attrs(v).clone()).collect();
            let q = g.quotient(&class, n, &labels, attrs);
            prop_assert_eq!(q.node_count(), g.node_count());
            prop_assert_eq!(q.edge_count(), g.edge_count());
            for v in g.nodes() {
                prop_assert_eq!(q.label(v), g.label(v));
            }
        }

        #[test]
        fn quotient_to_single_class_keeps_edge_labels(g in arb_graph()) {
            let n = g.node_count();
            if n == 0 { return Ok(()); }
            let class = vec![0u32; n];
            let q = g.quotient(&class, 1, &[sym("a")], vec![BTreeMap::new()]);
            prop_assert_eq!(q.node_count(), 1);
            // every distinct edge label survives as a self loop
            let labels_before: std::collections::HashSet<_> =
                g.edges().map(|e| e.label).collect();
            let labels_after: std::collections::HashSet<_> =
                q.edges().map(|e| e.label).collect();
            prop_assert_eq!(labels_before, labels_after);
        }
    }
}
