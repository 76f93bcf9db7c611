//! Graph serialisation: a line-oriented text format and a compact binary
//! encoding.
//!
//! Text format (one item per line, `#` comments):
//!
//! ```text
//! node <name> <label> [attr=value]...
//! edge <src-name> <label> <dst-name>
//! ```
//!
//! Values follow [`Value::parse`]: quoted strings, ints, floats, booleans.
//! Node names are arbitrary identifiers without whitespace.
//!
//! The binary encoding (via [`bytes`]) is a simple length-prefixed layout
//! used by the bench harness to snapshot generated workloads; it is not a
//! stable interchange format.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};
use crate::symbol::Symbol;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Errors from the text loader / binary decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// A malformed line, with its 1-based line number and a description.
    Parse(usize, String),
    /// Binary payload truncated or corrupt.
    Binary(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            IoError::Binary(msg) => write!(f, "binary decode: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Why a node attribute named `id` is refused: it is the node identity.
const ID_ATTR: &str = "attribute `id` is the node identity and cannot be set";

/// Parse the text format into a graph.
pub fn parse_text(input: &str) -> Result<Graph, IoError> {
    let mut b = GraphBuilder::new();
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = split_tokens(line);
        let kind = parts.remove(0);
        match kind.as_str() {
            "node" => {
                if parts.len() < 2 {
                    return Err(IoError::Parse(lineno, "node needs <name> <label>".into()));
                }
                let name = &parts[0];
                let label = &parts[1];
                b.node(name, label);
                for kv in &parts[2..] {
                    let Some(eq) = kv.find('=') else {
                        return Err(IoError::Parse(
                            lineno,
                            format!("attribute {kv:?} is not of the form attr=value"),
                        ));
                    };
                    let (a, v) = kv.split_at(eq);
                    if Symbol::new(a) == Symbol::ID {
                        return Err(IoError::Parse(lineno, ID_ATTR.into()));
                    }
                    b.attr(name, a, Value::parse(&v[1..]));
                }
            }
            "edge" => {
                if parts.len() != 3 {
                    return Err(IoError::Parse(
                        lineno,
                        "edge needs <src> <label> <dst>".into(),
                    ));
                }
                if !b.contains(&parts[0]) || !b.contains(&parts[2]) {
                    return Err(IoError::Parse(
                        lineno,
                        format!(
                            "edge references undeclared node ({} or {})",
                            parts[0], parts[2]
                        ),
                    ));
                }
                b.edge(&parts[0], &parts[1], &parts[2]);
            }
            other => {
                return Err(IoError::Parse(
                    lineno,
                    format!("unknown directive {other:?} (expected node/edge)"),
                ));
            }
        }
    }
    Ok(b.build())
}

/// Tokenise a line, keeping quoted strings (which may contain spaces) intact
/// inside `attr="a b"` tokens.
fn split_tokens(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                cur.push(c);
            }
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Render a graph in the text format (node names are `n<i>`).
///
/// The text format carries no tombstones: re-parsing a graph that had
/// nodes removed yields the same structure (names keep the original
/// numbers) but with freshly compacted [`NodeId`]s. Use the binary
/// [`encode`]/[`decode`] pair when ids must survive a round-trip.
pub fn to_text(g: &Graph) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for n in g.nodes() {
        let _ = write!(s, "node n{} {}", n.0, g.label(n));
        for (a, v) in g.attrs(n) {
            let _ = write!(s, " {}={}", a, v);
        }
        s.push('\n');
    }
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort_by_key(|e| (e.src, e.dst, e.label));
    for e in edges {
        let _ = writeln!(s, "edge n{} {} n{}", e.src.0, e.label, e.dst.0);
    }
    s
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, IoError> {
    if buf.remaining() < 4 {
        return Err(IoError::Binary("truncated length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(IoError::Binary("truncated string".into()));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|e| IoError::Binary(e.to_string()))
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Bool(b) => {
            buf.put_u8(0);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
    }
}

fn get_value(buf: &mut Bytes) -> Result<Value, IoError> {
    if buf.remaining() < 1 {
        return Err(IoError::Binary("truncated value tag".into()));
    }
    match buf.get_u8() {
        0 => Ok(Value::Bool(buf.get_u8() != 0)),
        1 => Ok(Value::Int(buf.get_i64_le())),
        2 => Ok(Value::Float(buf.get_f64_le())),
        3 => Ok(Value::Str(get_str(buf)?)),
        t => Err(IoError::Binary(format!("bad value tag {t}"))),
    }
}

/// Magic prefix of the binary format, guarding against foreign payloads.
const BINARY_MAGIC: &[u8; 4] = b"GEDB";
/// Format version; bumped when the layout changes (v2 added per-slot
/// liveness flags for tombstoned node ids).
const BINARY_VERSION: u8 = 2;

/// Encode a graph into the compact binary format. The encoding walks every
/// id slot up to [`Graph::node_id_bound`] with a liveness flag, so graphs
/// that evolved through node removal round-trip with their (tombstoned)
/// [`NodeId`]s intact — stored witnesses stay valid across a reload.
pub fn encode(g: &Graph) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(BINARY_MAGIC);
    buf.put_u8(BINARY_VERSION);
    buf.put_u32_le(g.node_id_bound() as u32);
    for slot in 0..g.node_id_bound() as u32 {
        let n = NodeId(slot);
        if !g.is_alive(n) {
            buf.put_u8(0);
            continue;
        }
        buf.put_u8(1);
        put_str(&mut buf, &g.label(n).name());
        let attrs = g.attrs(n);
        buf.put_u32_le(attrs.len() as u32);
        for (a, v) in attrs {
            put_str(&mut buf, &a.name());
            put_value(&mut buf, v);
        }
    }
    let edges: Vec<_> = g.edges().collect();
    buf.put_u32_le(edges.len() as u32);
    for e in edges {
        buf.put_u32_le(e.src.0);
        put_str(&mut buf, &e.label.name());
        buf.put_u32_le(e.dst.0);
    }
    buf.freeze()
}

/// Decode a graph from the compact binary format, reconstructing dead id
/// slots as tombstones so every surviving [`NodeId`] matches the encoded
/// graph.
pub fn decode(mut buf: Bytes) -> Result<Graph, IoError> {
    let mut g = Graph::new();
    if buf.remaining() < 5 {
        return Err(IoError::Binary("truncated header".into()));
    }
    if buf.copy_to_bytes(4).to_vec() != BINARY_MAGIC {
        return Err(IoError::Binary(
            "bad magic: not a GED binary snapshot".into(),
        ));
    }
    let version = buf.get_u8();
    if version != BINARY_VERSION {
        return Err(IoError::Binary(format!(
            "unsupported snapshot version {version} (expected {BINARY_VERSION})"
        )));
    }
    if buf.remaining() < 4 {
        return Err(IoError::Binary("truncated node count".into()));
    }
    let n_nodes = buf.get_u32_le();
    for _ in 0..n_nodes {
        if buf.remaining() < 1 {
            return Err(IoError::Binary("truncated liveness flag".into()));
        }
        if buf.get_u8() == 0 {
            // Dead slot: allocate the id, then tombstone it.
            let id = g.add_node(Symbol::WILDCARD);
            g.remove_node(id);
            continue;
        }
        let label = get_str(&mut buf)?;
        let id = g.add_node(Symbol::new(&label));
        if buf.remaining() < 4 {
            return Err(IoError::Binary("truncated attr count".into()));
        }
        let n_attrs = buf.get_u32_le();
        for _ in 0..n_attrs {
            let a = Symbol::new(&get_str(&mut buf)?);
            if a == Symbol::ID {
                return Err(IoError::Binary(ID_ATTR.into()));
            }
            let v = get_value(&mut buf)?;
            g.set_attr(id, a, v);
        }
    }
    if buf.remaining() < 4 {
        return Err(IoError::Binary("truncated edge count".into()));
    }
    let n_edges = buf.get_u32_le();
    for _ in 0..n_edges {
        if buf.remaining() < 4 {
            return Err(IoError::Binary("truncated edge".into()));
        }
        let src = buf.get_u32_le();
        let label = get_str(&mut buf)?;
        if buf.remaining() < 4 {
            return Err(IoError::Binary("truncated edge dst".into()));
        }
        let dst = buf.get_u32_le();
        if src >= n_nodes || dst >= n_nodes {
            return Err(IoError::Binary("edge endpoint out of range".into()));
        }
        if !g.is_alive(NodeId(src)) || !g.is_alive(NodeId(dst)) {
            return Err(IoError::Binary("edge endpoint is a removed node".into()));
        }
        g.add_edge(NodeId(src), Symbol::new(&label), NodeId(dst));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"
# Example 1(1): the Ghetto Blaster inconsistency.
node tony person type="psychologist" name="Tony Gibson"
node gb  product type="video game" title="Ghetto Blaster"
edge tony create gb
"#;

    #[test]
    fn parse_text_fixture() {
        let g = parse_text(FIXTURE).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let tony = g.nodes_with_label(Symbol::new("person"))[0];
        assert_eq!(
            g.attr(tony, Symbol::new("type")),
            Some(&Value::from("psychologist"))
        );
        assert_eq!(
            g.attr(tony, Symbol::new("name")),
            Some(&Value::from("Tony Gibson")),
            "quoted strings keep embedded spaces"
        );
    }

    #[test]
    fn parse_errors_are_located() {
        let err = parse_text("node a t\nedge a e b\n").unwrap_err();
        match err {
            IoError::Parse(2, msg) => assert!(msg.contains("undeclared")),
            other => panic!("unexpected error {other:?}"),
        }
        let err = parse_text("frob x\n").unwrap_err();
        assert!(matches!(err, IoError::Parse(1, _)));
        let err = parse_text("node a\n").unwrap_err();
        assert!(matches!(err, IoError::Parse(1, _)));
        let err = parse_text("node a t bad-attr\n").unwrap_err();
        assert!(matches!(err, IoError::Parse(1, _)));
    }

    #[test]
    fn text_loader_rejects_an_id_attribute() {
        let err = parse_text("node a t\nnode b t id=3\n").unwrap_err();
        assert!(
            matches!(err, IoError::Parse(2, ref m) if m.contains("`id`")),
            "{err}"
        );
    }

    #[test]
    fn binary_decoder_rejects_an_id_attribute() {
        // Encode a node with attribute `idx`, then rename it to `id` in
        // place by cutting the `x` and shortening the length prefix.
        let mut g = Graph::new();
        let a = g.add_node(Symbol::new("t"));
        g.set_attr(a, Symbol::new("idx"), 3);
        let bytes = encode(&g).to_vec();
        let at = bytes
            .windows(3)
            .position(|w| w == b"idx")
            .expect("attribute name in payload");
        let mut payload = bytes[..at - 4].to_vec();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(b"id");
        payload.extend_from_slice(&bytes[at + 3..]);
        let err = decode(Bytes::from(payload)).unwrap_err();
        assert!(
            matches!(err, IoError::Binary(ref m) if m.contains("`id`")),
            "{err}"
        );
    }

    #[test]
    fn text_round_trip() {
        let g = parse_text(FIXTURE).unwrap();
        let text = to_text(&g);
        let g2 = parse_text(&text).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for (n1, n2) in g.nodes().zip(g2.nodes()) {
            assert_eq!(g.label(n1), g2.label(n2));
            assert_eq!(g.attrs(n1), g2.attrs(n2));
        }
    }

    #[test]
    fn binary_round_trip() {
        let g = parse_text(FIXTURE).unwrap();
        let bytes = encode(&g);
        let g2 = decode(bytes).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for (n1, n2) in g.nodes().zip(g2.nodes()) {
            assert_eq!(g.label(n1), g2.label(n2));
            assert_eq!(g.attrs(n1), g2.attrs(n2));
        }
        let edges1: std::collections::HashSet<_> = g.edges().collect();
        let edges2: std::collections::HashSet<_> = g2.edges().collect();
        assert_eq!(edges1, edges2);
    }

    #[test]
    fn binary_round_trip_preserves_tombstoned_ids() {
        let mut g = Graph::new();
        let a = g.add_node(Symbol::new("t"));
        let b = g.add_node(Symbol::new("t"));
        let c = g.add_node(Symbol::new("u"));
        g.add_edge(b, Symbol::new("e"), c);
        g.set_attr(c, Symbol::new("p"), 7);
        g.remove_node(a);

        let g2 = decode(encode(&g)).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.node_id_bound(), 3, "dead slot survives as a tombstone");
        assert!(!g2.is_alive(a));
        assert!(g2.is_alive(b) && g2.is_alive(c));
        assert!(g2.has_edge(b, Symbol::new("e"), c), "edge ids unshifted");
        assert_eq!(g2.attr(c, Symbol::new("p")), Some(&Value::from(7)));
        // Ids keep flowing from the same bound after a reload.
        let mut g2 = g2;
        assert_eq!(g2.add_node(Symbol::new("t")), NodeId(3));
    }

    #[test]
    fn binary_rejects_edges_to_removed_nodes() {
        // Hand-build a payload: 2 slots (slot 0 dead, slot 1 "t"), then one
        // edge 1 -> 0 targeting the dead slot.
        let mut g = Graph::new();
        let a = g.add_node(Symbol::new("t"));
        let b = g.add_node(Symbol::new("t"));
        g.add_edge(b, Symbol::new("e"), a);
        let mut bytes = encode(&g).to_vec();
        // Corrupt: mark slot 0 dead by re-encoding a graph where it is,
        // then splice the original edge section back in.
        g.remove_node(a);
        let dead = encode(&g).to_vec();
        // dead payload ends with edge count 0; replace it with the edge
        // section of the original payload (count 1 + one edge record).
        let edge_section_start = bytes.len() - (4 + 4 + 4 + 1 + 4);
        let mut payload = dead[..dead.len() - 4].to_vec();
        payload.extend_from_slice(&bytes.split_off(edge_section_start));
        let err = decode(Bytes::from(payload)).unwrap_err();
        assert!(
            matches!(err, IoError::Binary(ref m) if m.contains("removed")),
            "{err}"
        );
    }

    #[test]
    fn binary_rejects_wrong_magic_and_version() {
        let err = decode(Bytes::from_static(b"NOPE\x02\0\0\0\0")).unwrap_err();
        assert!(
            matches!(err, IoError::Binary(ref m) if m.contains("magic")),
            "{err}"
        );
        let err = decode(Bytes::from_static(b"GEDB\x01\0\0\0\0")).unwrap_err();
        assert!(
            matches!(err, IoError::Binary(ref m) if m.contains("version 1")),
            "{err}"
        );
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(decode(Bytes::from_static(&[1, 2, 3])).is_err());
        // Valid node count but nothing else.
        assert!(decode(Bytes::from_static(&[5, 0, 0, 0])).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = parse_text("# just a comment\n\n").unwrap();
        assert_eq!(g.node_count(), 0);
        let g2 = decode(encode(&g)).unwrap();
        assert_eq!(g2.node_count(), 0);
    }
}
