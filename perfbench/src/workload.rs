//! The benchmark's workloads: each one's starting graph and Σ from
//! `ged-datagen`, and its delta stream, all derived from the seed.
//!
//! A stream is a fixed cycle of batches that the load generator repeats
//! for as long as the run lasts. A pass of an ingest cycle ends on the
//! graph it started from; a pass of the `read-mix` cycle ends where the
//! previous pass ended. Repeating a cycle thus keeps the graph's size
//! steady and every edge toggle meaningful.

use ged_datagen::mixed::social_mixed;
use ged_datagen::random::{plant_key_violations, random_graph, random_sigma, RandomGraphConfig};
use ged_datagen::social::SocialConfig;
use ged_ext::SigmaConstraint;
use ged_graph::{sym, Delta, DeltaSet, Graph, NodeId, Symbol, Value};
use ged_proto::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator seed of the `match-ingest` graph and Σ. Fixed rather than
/// taken from `--seed`: the cost of anchored re-enumeration on this
/// graph family differs up to 2× between graph seeds (one random rule
/// can fall into a pattern whose anchors each reach thousands of
/// candidates), which would swamp any change under test. The seed still
/// drives the delta stream.
const MATCH_GRAPH_SEED: u64 = 7;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop 200-delta batches on the social mixed-family graph.
    BulkIngest,
    /// Closed-loop 4-delta batches on a 10k-node random graph.
    MatchIngest,
    /// A closed-loop reader beside an open-loop writer that toggles
    /// planted violations.
    ReadMix,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::BulkIngest,
        Workload::MatchIngest,
        Workload::ReadMix,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkIngest => "bulk-ingest",
            Workload::MatchIngest => "match-ingest",
            Workload::ReadMix => "read-mix",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Build the workload's inputs for `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        let (graph, sigma, cycle) = match self {
            Workload::BulkIngest => {
                let w = social(600, 10, seed);
                let cycle = bulk_cycle(&w.0, seed);
                (w.0, w.1, cycle)
            }
            Workload::MatchIngest => {
                let cfg = RandomGraphConfig {
                    n_nodes: 10_000,
                    n_edges: 30_000,
                    seed: MATCH_GRAPH_SEED,
                    ..Default::default()
                };
                let mut graph = random_graph(&cfg);
                let key = plant_key_violations(&mut graph, "entity", 50);
                let mut sigma: Vec<SigmaConstraint> = vec![key.into()];
                sigma.extend(
                    random_sigma(4, 3, &cfg)
                        .into_iter()
                        .map(SigmaConstraint::from),
                );
                let cycle = match_cycle(&graph, cfg.n_nodes, seed);
                (graph, sigma, cycle)
            }
            Workload::ReadMix => {
                let w = social(2_500, 200, seed);
                let cycle = toggle_cycle(&w.0, seed);
                (w.0, w.1, cycle)
            }
        };
        let encoded: Vec<String> = cycle
            .iter()
            .map(|b| Request::Apply(b.clone()).to_json().to_string())
            .collect();
        let stream_hash = encoded
            .iter()
            .fold(FNV_OFFSET, |h, e| fnv1a(fnv1a(h, e.as_bytes()), b"\n"));
        Inputs {
            graph,
            sigma,
            cycle,
            encoded,
            stream_hash,
        }
    }
}

/// Everything the daemon and the load generator are fed.
#[derive(Debug)]
pub struct Inputs {
    /// Starting graph.
    pub graph: Graph,
    /// Σ.
    pub sigma: Vec<SigmaConstraint>,
    /// The batch cycle the writer repeats.
    pub cycle: Vec<DeltaSet>,
    /// Each batch of the cycle as the `apply` request line it is sent as.
    pub encoded: Vec<String>,
    /// FNV-1a hash of the encoded cycle, newline-separated.
    pub stream_hash: u64,
}

impl Inputs {
    /// Deltas per batch.
    pub fn batch_size(&self) -> usize {
        self.cycle[0].len()
    }

    /// The batch sent as the `seq`-th apply of a run.
    pub fn batch(&self, seq: usize) -> &DeltaSet {
        &self.cycle[seq % self.cycle.len()]
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn social(honest: usize, plants: usize, seed: u64) -> (Graph, Vec<SigmaConstraint>) {
    let cfg = SocialConfig {
        n_honest: honest,
        seed,
        ..Default::default()
    };
    let w = social_mixed(&cfg, plants, seed);
    (w.graph, w.sigma)
}

/// The toggle of edge `src -label-> dst` against `g`: add when absent,
/// remove when present.
fn toggle(g: &Graph, src: NodeId, label: Symbol, dst: NodeId) -> Delta {
    if g.has_edge(src, label, dst) {
        Delta::RemoveEdge { src, label, dst }
    } else {
        Delta::AddEdge { src, label, dst }
    }
}

/// The delta that reverts `d` on `g`, the graph as it stands before `d`.
fn inverse(g: &Graph, d: &Delta) -> Delta {
    match d {
        Delta::AddEdge { src, label, dst } | Delta::RemoveEdge { src, label, dst } => {
            // A toggle reverts a toggle; a no-op reverts a no-op.
            let (src, label, dst) = (*src, *label, *dst);
            if g.has_edge(src, label, dst) {
                Delta::AddEdge { src, label, dst }
            } else {
                Delta::RemoveEdge { src, label, dst }
            }
        }
        Delta::SetAttr { node, attr, .. } => match g.attr(*node, *attr) {
            Some(old) => Delta::SetAttr {
                node: *node,
                attr: *attr,
                value: old.clone(),
            },
            None => Delta::DelAttr {
                node: *node,
                attr: *attr,
            },
        },
        other => unreachable!("the ingest streams draw no {other:?}"),
    }
}

/// Builds a cycle of `len` batches whose second half undoes the first:
/// batch `len − 1 − j` reverts batch `j`, delta by delta in reverse
/// order, so every pass of the cycle ends on the graph it started from.
/// `draw` lays out each batch of the first half against the graph as it
/// stands.
fn undo_cycle(
    graph: &Graph,
    len: usize,
    mut draw: impl FnMut(&Graph) -> Vec<Delta>,
) -> Vec<DeltaSet> {
    let mut sim = graph.clone();
    let mut cycle: Vec<DeltaSet> = Vec::with_capacity(len);
    let mut undos: Vec<DeltaSet> = Vec::with_capacity(len / 2);
    for _ in 0..len / 2 {
        let batch = draw(&sim);
        let mut undo = Vec::with_capacity(batch.len());
        for d in &batch {
            undo.push(inverse(&sim, d));
            sim.apply_delta(d);
        }
        undo.reverse();
        cycle.push(batch.into());
        undos.push(undo.into());
    }
    cycle.extend(undos.into_iter().rev());
    cycle
}

/// `bulk-ingest`: 256 batches of 200 deltas; every fifth delta toggles a
/// `follow` edge between two accounts, the rest write `age`, `tier` or
/// `verified`, with values that now and then violate a rule.
fn bulk_cycle(graph: &Graph, seed: u64) -> Vec<DeltaSet> {
    const TIERS: [&str; 3] = ["free", "pro", "biz"];
    let accounts: Vec<NodeId> = graph.nodes_with_label(sym("account")).to_vec();
    let (age, tier, verified, follow) = (sym("age"), sym("tier"), sym("verified"), sym("follow"));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb01c);
    let n = accounts.len();
    undo_cycle(graph, 256, |g| {
        (0..200)
            .map(|k| {
                let node = accounts[rng.random_range(0..n)];
                if k % 5 == 0 {
                    return toggle(g, node, follow, accounts[rng.random_range(0..n)]);
                }
                let (attr, value) = match k % 3 {
                    0 => (age, Value::from(rng.random_range(10..71i64))),
                    // One tier write in 16 is out of the rule's domain.
                    1 if rng.random_range(0..16u32) == 0 => (tier, Value::from("gold")),
                    1 => (tier, Value::from(TIERS[rng.random_range(0..3usize)])),
                    _ => (verified, Value::from(rng.random_range(0..2i64))),
                };
                Delta::SetAttr { node, attr, value }
            })
            .collect()
    })
}

/// `match-ingest`: 512 batches of 4 deltas, alternating an `e0` edge
/// toggle between random nodes of the random graph with an `attr0`
/// write.
fn match_cycle(graph: &Graph, n_nodes: usize, seed: u64) -> Vec<DeltaSet> {
    let (attr0, e0, n) = (sym("attr0"), sym("e0"), n_nodes as u32);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7c);
    undo_cycle(graph, 512, |g| {
        (0..4)
            .map(|k| {
                let node = NodeId(rng.random_range(0..n));
                if k % 2 == 0 {
                    toggle(g, node, e0, NodeId(rng.random_range(0..n)))
                } else {
                    Delta::SetAttr {
                        node,
                        attr: attr0,
                        value: Value::from(rng.random_range(0..8i64)),
                    }
                }
            })
            .collect()
    })
}

/// One planted violation of the social mixed-family graph, with the
/// delta that repairs it and the one that plants it again.
fn planted(graph: &Graph) -> Vec<(Delta, Delta)> {
    let (verified, follow, age, tier) = (sym("verified"), sym("follow"), sym("age"), sym("tier"));
    let mut out = Vec::new();
    for &a in graph.nodes_with_label(sym("account")) {
        let set = |attr, value: Value| Delta::SetAttr {
            node: a,
            attr,
            value,
        };
        if graph.attr(a, verified) == Some(&Value::from(1i64)) {
            out.push((
                set(verified, Value::from(0i64)),
                set(verified, Value::from(1i64)),
            ));
        }
        if graph.has_edge(a, follow, a) {
            let (src, label, dst) = (a, follow, a);
            out.push((
                Delta::RemoveEdge { src, label, dst },
                Delta::AddEdge { src, label, dst },
            ));
        }
        if let Some(Value::Int(years)) = graph.attr(a, age) {
            if *years < 13 {
                out.push((set(age, Value::from(30i64)), set(age, Value::from(*years))));
            }
        }
        if graph.attr(a, tier) == Some(&Value::from("gold")) {
            out.push((
                set(tier, Value::from("pro")),
                set(tier, Value::from("gold")),
            ));
        }
    }
    out
}

/// `read-mix`: each 4-delta batch repairs two planted violations and
/// plants again two repaired [`TOGGLE_WINDOW`] items earlier, so about
/// `planted − TOGGLE_WINDOW` violations stand at any time. One cycle
/// walks the shuffled planted list once.
fn toggle_cycle(graph: &Graph, seed: u64) -> Vec<DeltaSet> {
    const TOGGLE_WINDOW: usize = 200;
    let mut items = planted(graph);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7099);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
    let p = items.len();
    assert!(
        p > TOGGLE_WINDOW && p.is_multiple_of(2),
        "read-mix needs an even number of planted violations above the toggle window, got {p}"
    );
    (0..p / 2)
        .map(|i| {
            let (a, b) = (2 * i, 2 * i + 1);
            let back = |k: usize| (k + p - TOGGLE_WINDOW) % p;
            vec![
                items[a].0.clone(),
                items[b].0.clone(),
                items[back(a)].1.clone(),
                items[back(b)].1.clone(),
            ]
            .into()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let a = w.inputs(1);
            let b = w.inputs(1);
            let c = w.inputs(2);
            assert_eq!(a.encoded, b.encoded, "{}", w.name());
            assert_eq!(a.stream_hash, b.stream_hash, "{}", w.name());
            assert_eq!(a.graph.node_count(), b.graph.node_count(), "{}", w.name());
            assert_ne!(a.stream_hash, c.stream_hash, "{}", w.name());
        }
    }

    #[test]
    fn every_pass_of_a_cycle_ends_where_the_last_one_did() {
        // Edges and attribute values, in a comparable order.
        let state = |g: &Graph| {
            let mut edges: Vec<_> = g.edges().map(|e| (e.src, e.label, e.dst)).collect();
            edges.sort();
            let attrs: Vec<_> = g.nodes().map(|n| format!("{:?}", g.attrs(n))).collect();
            (edges, attrs)
        };
        for w in Workload::ALL {
            let inputs = w.inputs(3);
            let mut g = inputs.graph.clone();
            let mut after_pass = vec![state(&g)];
            for _ in 0..2 {
                for batch in &inputs.cycle {
                    assert_eq!(batch.len(), inputs.batch_size(), "{}", w.name());
                    for d in batch.deltas() {
                        g.apply_delta(d);
                    }
                }
                after_pass.push(state(&g));
            }
            assert!(after_pass[1] == after_pass[2], "{}", w.name());
            if w != Workload::ReadMix {
                // An ingest pass undoes itself; the read-mix cycle
                // leaves its window of repairs open.
                assert!(after_pass[0] == after_pass[1], "{}", w.name());
            }
        }
    }
}
